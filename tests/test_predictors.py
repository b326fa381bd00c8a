import io

import numpy as np
import pytest

from kellybt.candles import DataError, generate_synthetic_series
from kellybt.features import make_labels
from kellybt.predictors import (AB_FLOOR, P_CLIP_HI, estimate_scenarios,
                                load_predictions, simulate_balanced,
                                simulate_gaussian, simulate_optimal)

import oracles
from conftest import make_series_from_closes


def _labels(n, seed=0):
    series = generate_synthetic_series(seed=seed, n=n + 5, volatility=0.01)
    return make_labels(series, horizon=5)


def _correct_count(preds, labels):
    by_ts = {int(t): int(d) for t, d in zip(labels.timestamps, labels.direction)}
    return sum(1 for p in preds
               if (1 if p.p_up > 0.5 else -1) == by_ts[p.timestamp])


def test_balanced_exact_count_n10():
    labels = _labels(10)
    preds = simulate_balanced(labels, seed=1)
    assert _correct_count(preds, labels) == 6


def test_balanced_hit_rate_one():
    labels = _labels(25)
    preds = simulate_balanced(labels, seed=2, hit_rate=1.0)
    assert _correct_count(preds, labels) == 25


def test_balanced_probability_values():
    labels = _labels(30)
    preds = simulate_balanced(labels, seed=3)
    assert set(round(p.p_up, 12) for p in preds) <= {0.6, 0.4}


def test_balanced_determinism():
    labels = _labels(40)
    assert simulate_balanced(labels, seed=4) == simulate_balanced(labels, seed=4)
    assert simulate_balanced(labels, seed=4) != simulate_balanced(labels, seed=5)


def test_balanced_validation():
    labels = _labels(10)
    with pytest.raises(ValueError, match="hit_rate"):
        simulate_balanced(labels, seed=0, hit_rate=0.0)
    with pytest.raises(ValueError, match="p_const"):
        simulate_balanced(labels, seed=0, p_const=0.4)


def test_optimal_probability_sequence():
    labels = _labels(50)
    preds = simulate_optimal(labels)
    for p, d in zip(preds, labels.direction):
        assert p.p_up == (0.8 if d > 0 else 0.2)
    assert _correct_count(preds, labels) == len(labels)


def test_gaussian_exact_count_and_sides():
    labels = _labels(1000, seed=6)
    preds = simulate_gaussian(labels, seed=7)
    assert _correct_count(preds, labels) == 600
    for p in preds:
        assert 0.01 <= p.p_up <= 0.99
        assert p.p_up != 0.5


def test_gaussian_same_correctness_assignment_as_balanced():
    labels = _labels(200, seed=8)
    bal = simulate_balanced(labels, seed=9)
    gau = simulate_gaussian(labels, seed=9)
    for b, g in zip(bal, gau):
        assert (b.p_up > 0.5) == (g.p_up > 0.5)


def test_gaussian_moment_matches_truncated_normal():
    # Draws are truncated to the predicted side of 0.5, so the reference
    # moment is the truncated normal's, not the raw mean.
    labels = _labels(10_000, seed=10)
    preds = simulate_gaussian(labels, seed=11, sigma=0.1)
    ups = np.array([p.p_up for p in preds if p.p_up > 0.5])
    mean, sd = oracles.truncated_normal_moments(0.6, 0.1, 0.5, P_CLIP_HI)
    se = sd / np.sqrt(ups.size)
    assert abs(ups.mean() - mean) <= 3 * se


def test_gaussian_small_sigma_reduces_to_balanced():
    labels = _labels(50, seed=12)
    gau = simulate_gaussian(labels, seed=13, sigma=1e-9)
    bal = simulate_balanced(labels, seed=13)
    for g, b in zip(gau, bal):
        assert abs(g.p_up - b.p_up) < 1e-6


def test_gaussian_determinism():
    labels = _labels(300, seed=20)
    assert simulate_gaussian(labels, seed=21) == simulate_gaussian(labels, seed=21)
    assert simulate_gaussian(labels, seed=21) != simulate_gaussian(labels, seed=22)


def test_gaussian_validation():
    labels = _labels(10)
    with pytest.raises(ValueError, match="sigma"):
        simulate_gaussian(labels, seed=0, sigma=0.0)
    with pytest.raises(ValueError, match="mu_short"):
        simulate_gaussian(labels, seed=0, mu_long=0.4, mu_short=0.6)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_gaussian_rejects_non_finite_sigma(sigma):
    # A NaN sigma never draws a value on the predicted side: the walk never ended.
    with pytest.raises(ValueError, match="sigma"):
        simulate_gaussian(_labels(10), seed=0, sigma=sigma)


# --- external predictions -------------------------------------------------------


def test_load_predictions_with_estimates():
    text = "timestamp,p_up,a,b\n1650000000,0.6,0.05,0.04\n"
    preds, ests = load_predictions(io.StringIO(text))
    assert preds[0].timestamp == 1650000000 and preds[0].p_up == 0.6
    assert (ests[0].a, ests[0].b) == (0.05, 0.04)


def test_load_predictions_probability_out_of_range():
    with pytest.raises(DataError, match="outside"):
        load_predictions(io.StringIO("timestamp,p_up\n3600,1.2\n"))


def test_load_predictions_without_estimate_columns():
    preds, ests = load_predictions(io.StringIO("timestamp,p_up\n3600,0.7\n"))
    assert ests is None and preds[0].p_up == 0.7


def test_load_predictions_single_scenario_column_rejected():
    with pytest.raises(DataError, match="together"):
        load_predictions(io.StringIO("timestamp,p_up,a\n3600,0.7,0.01\n"))


def test_load_predictions_clip_and_floor():
    text = "timestamp,p_up,a,b\n3600,0.999,0.0001,0.5\n"
    preds, ests = load_predictions(io.StringIO(text))
    assert preds[0].p_up == 0.99
    assert ests[0].a == AB_FLOOR and ests[0].b == 0.5


def test_load_predictions_nonpositive_scenario_rejected():
    with pytest.raises(DataError, match="magnitudes"):
        load_predictions(io.StringIO("timestamp,p_up,a,b\n3600,0.7,-0.1,0.1\n"))


def test_load_predictions_duplicate_timestamp():
    text = "timestamp,p_up\n3600,0.7\n3600,0.6\n"
    with pytest.raises(DataError, match="duplicate"):
        load_predictions(io.StringIO(text))


def test_load_predictions_series_alignment():
    series = generate_synthetic_series(seed=1, n=10)
    ts = int(series.timestamps[2])
    preds, _ = load_predictions(io.StringIO(f"timestamp,p_up\n{ts},0.7\n"), series)
    assert preds[0].timestamp == ts
    with pytest.raises(DataError, match="not present"):
        load_predictions(io.StringIO("timestamp,p_up\n977616000,0.7\n"), series)


# --- scenario estimation ---------------------------------------------------------


def test_estimate_all_positive_history():
    ratio = 1.01 ** 0.2  # every 5-bar return is exactly +1%
    closes = [100.0 * ratio ** t for t in range(80)]
    series = make_series_from_closes(closes)
    ests = estimate_scenarios(series, horizon=5, window=60)
    assert len(ests) == 20
    for e in ests:
        assert abs(e.a - 0.01) < 1e-9
        assert e.b == AB_FLOOR


def test_estimate_symmetric_alternation():
    closes = [100.0]
    for t in range(90):
        closes.append(closes[-1] * (1.01 if t % 2 == 0 else 0.99))
    series = make_series_from_closes(closes)
    ests = estimate_scenarios(series, horizon=1, window=10)
    for e in ests:
        assert abs(e.a - 0.01) < 1e-12
        assert abs(e.b - 0.01) < 1e-12


def test_estimate_matches_trailing_scan_oracle():
    series = generate_synthetic_series(seed=14, n=700, volatility=0.012)
    horizon, window = 5, 120
    ests = estimate_scenarios(series, horizon=horizon, window=window)
    by_ts = {e.timestamp: e for e in ests}
    c = series.close
    r = [(c[s + horizon] - c[s]) / c[s] for s in range(len(series) - horizon)]
    for t in range(window, len(series), 37):
        pos = [r[s] for s in range(t - window, t - horizon + 1) if r[s] > 0]
        neg = [r[s] for s in range(t - window, t - horizon + 1) if r[s] < 0]
        a = max(float(np.sum(pos) / len(pos)) if pos else AB_FLOOR, AB_FLOOR)
        b = max(float(-(np.sum(neg) / len(neg))) if neg else AB_FLOOR, AB_FLOOR)
        e = by_ts[int(series.timestamps[t])]
        assert abs(e.a - a) < 1e-15 and abs(e.b - b) < 1e-15


def test_estimate_causality_prefix_audit():
    series = generate_synthetic_series(seed=15, n=400, volatility=0.012)
    full = {e.timestamp: e for e in estimate_scenarios(series, horizon=5, window=100)}
    for t in range(100, 400, 61):
        prefix = estimate_scenarios(series.slice(0, t + 1), horizon=5, window=100)
        last = prefix[-1]
        assert last.timestamp == int(series.timestamps[t])
        assert last == full[last.timestamp]


def test_estimate_window_validation():
    series = generate_synthetic_series(seed=16, n=100)
    with pytest.raises(ValueError, match="window"):
        estimate_scenarios(series, horizon=5, window=40)


def test_estimate_short_series_is_empty():
    series = generate_synthetic_series(seed=16, n=50)
    assert estimate_scenarios(series, horizon=5, window=60) == []


@pytest.mark.parametrize("a,b", [("nan", "0.1"), ("0.1", "nan"), ("inf", "0.1"),
                                 ("0.1", "inf")])
def test_load_predictions_non_finite_scenario_rejected(a, b):
    text = f"timestamp,p_up,a,b\n3600,0.7,0.1,0.1\n7200,0.7,{a},{b}\n"
    with pytest.raises(DataError, match="line 3"):
        load_predictions(io.StringIO(text))


@pytest.mark.parametrize("ts", ["nan", "inf", "-inf"])
def test_load_predictions_non_finite_timestamp_rejected(ts):
    with pytest.raises(DataError, match="line 2"):
        load_predictions(io.StringIO(f"timestamp,p_up\n{ts},0.7\n"))
