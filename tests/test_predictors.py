import io

import numpy as np
import pytest

from kellybt.candles import DataError, generate_synthetic_series
from kellybt.features import make_labels
from kellybt.predictors import (AB_FLOOR, P_CLIP_HI, Predictions, Scenarios,
                                estimate_scenarios, load_predictions, simulate_balanced,
                                simulate_gaussian, simulate_optimal)

import oracles
from conftest import make_series_from_closes


def _labels(n, seed=0):
    series = generate_synthetic_series(seed=seed, n=n + 5, volatility=0.01)
    return make_labels(series, horizon=5)


def _correct_count(preds, labels):
    assert np.array_equal(preds.timestamps, labels.timestamps)
    return int((np.where(preds.p_up > 0.5, 1, -1) == labels.direction).sum())


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
    assert set(np.round(preds.p_up, 12).tolist()) <= {0.6, 0.4}


def test_balanced_determinism():
    labels = _labels(40)
    assert np.array_equal(simulate_balanced(labels, seed=4).p_up,
                          simulate_balanced(labels, seed=4).p_up)
    assert not np.array_equal(simulate_balanced(labels, seed=4).p_up,
                              simulate_balanced(labels, seed=5).p_up)


def test_balanced_validation():
    labels = _labels(10)
    with pytest.raises(ValueError, match="hit_rate"):
        simulate_balanced(labels, seed=0, hit_rate=0.0)
    with pytest.raises(ValueError, match="p_const"):
        simulate_balanced(labels, seed=0, p_const=0.4)


def test_optimal_probability_sequence():
    labels = _labels(50)
    preds = simulate_optimal(labels)
    assert np.array_equal(preds.p_up, np.where(labels.direction > 0, 0.8, 0.2))
    assert _correct_count(preds, labels) == len(labels)


def test_gaussian_exact_count_and_sides():
    labels = _labels(1000, seed=6)
    preds = simulate_gaussian(labels, seed=7)
    assert _correct_count(preds, labels) == 600
    assert ((0.01 <= preds.p_up) & (preds.p_up <= 0.99)).all()
    assert (preds.p_up != 0.5).all()


def test_gaussian_same_correctness_assignment_as_balanced():
    labels = _labels(200, seed=8)
    bal = simulate_balanced(labels, seed=9)
    gau = simulate_gaussian(labels, seed=9)
    assert np.array_equal(bal.p_up > 0.5, gau.p_up > 0.5)


def test_gaussian_moment_matches_truncated_normal():
    # Draws are truncated to the predicted side of 0.5, so the reference
    # moment is the truncated normal's, not the raw mean.
    labels = _labels(10_000, seed=10)
    preds = simulate_gaussian(labels, seed=11, sigma=0.1)
    ups = preds.p_up[preds.p_up > 0.5]
    mean, sd = oracles.truncated_normal_moments(0.6, 0.1, 0.5, P_CLIP_HI)
    se = sd / np.sqrt(ups.size)
    assert abs(ups.mean() - mean) <= 3 * se


def test_gaussian_small_sigma_reduces_to_balanced():
    labels = _labels(50, seed=12)
    gau = simulate_gaussian(labels, seed=13, sigma=1e-9)
    bal = simulate_balanced(labels, seed=13)
    assert (np.abs(gau.p_up - bal.p_up) < 1e-6).all()


def test_gaussian_determinism():
    labels = _labels(300, seed=20)
    assert np.array_equal(simulate_gaussian(labels, seed=21).p_up,
                          simulate_gaussian(labels, seed=21).p_up)
    assert not np.array_equal(simulate_gaussian(labels, seed=21).p_up,
                              simulate_gaussian(labels, seed=22).p_up)


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
    assert preds.timestamps[0] == 1650000000 and preds.p_up[0] == 0.6
    assert (ests.a[0], ests.b[0]) == (0.05, 0.04)


def test_load_predictions_probability_out_of_range():
    with pytest.raises(DataError, match="outside"):
        load_predictions(io.StringIO("timestamp,p_up\n3600,1.2\n"))


def test_load_predictions_without_estimate_columns():
    preds, ests = load_predictions(io.StringIO("timestamp,p_up\n3600,0.7\n"))
    assert ests is None and preds.p_up[0] == 0.7


def test_load_predictions_single_scenario_column_rejected():
    with pytest.raises(DataError, match="together"):
        load_predictions(io.StringIO("timestamp,p_up,a\n3600,0.7,0.01\n"))


def test_load_predictions_clip_and_floor():
    text = "timestamp,p_up,a,b\n3600,0.999,0.0001,0.5\n"
    preds, ests = load_predictions(io.StringIO(text))
    assert preds.p_up[0] == 0.99
    assert ests.a[0] == AB_FLOOR and ests.b[0] == 0.5


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
    assert preds.timestamps[0] == ts
    with pytest.raises(DataError, match="not present"):
        load_predictions(io.StringIO("timestamp,p_up\n977616000,0.7\n"), series)


# --- scenario estimation ---------------------------------------------------------


def test_estimate_all_positive_history():
    ratio = 1.01 ** 0.2  # every 5-bar return is exactly +1%
    closes = [100.0 * ratio ** t for t in range(80)]
    series = make_series_from_closes(closes)
    ests = estimate_scenarios(series, horizon=5, window=60)
    assert len(ests) == 20
    assert (np.abs(ests.a - 0.01) < 1e-9).all()
    assert (ests.b == AB_FLOOR).all()


def test_estimate_symmetric_alternation():
    closes = [100.0]
    for t in range(90):
        closes.append(closes[-1] * (1.01 if t % 2 == 0 else 0.99))
    series = make_series_from_closes(closes)
    ests = estimate_scenarios(series, horizon=1, window=10)
    assert (np.abs(ests.a - 0.01) < 1e-12).all()
    assert (np.abs(ests.b - 0.01) < 1e-12).all()


def test_estimate_matches_trailing_scan_oracle():
    series = generate_synthetic_series(seed=14, n=700, volatility=0.012)
    horizon, window = 5, 120
    ests = estimate_scenarios(series, horizon=horizon, window=window)
    c = series.close
    r = [(c[s + horizon] - c[s]) / c[s] for s in range(len(series) - horizon)]
    for t in range(window, len(series), 37):
        pos = [r[s] for s in range(t - window, t - horizon + 1) if r[s] > 0]
        neg = [r[s] for s in range(t - window, t - horizon + 1) if r[s] < 0]
        a = max(float(np.sum(pos) / len(pos)) if pos else AB_FLOOR, AB_FLOOR)
        b = max(float(-(np.sum(neg) / len(neg))) if neg else AB_FLOOR, AB_FLOOR)
        k = t - window  # the estimate at bar t
        assert ests.timestamps[k] == series.timestamps[t]
        assert abs(ests.a[k] - a) < 1e-15 and abs(ests.b[k] - b) < 1e-15


def test_estimate_causality_prefix_audit():
    series = generate_synthetic_series(seed=15, n=400, volatility=0.012)
    full = estimate_scenarios(series, horizon=5, window=100)
    for t in range(100, 400, 61):
        prefix = estimate_scenarios(series.slice(0, t + 1), horizon=5, window=100)
        assert prefix.timestamps[-1] == series.timestamps[t] == full.timestamps[t - 100]
        assert (prefix.a[-1], prefix.b[-1]) == (full.a[t - 100], full.b[t - 100])


def test_estimate_window_validation():
    series = generate_synthetic_series(seed=16, n=100)
    with pytest.raises(ValueError, match="window"):
        estimate_scenarios(series, horizon=5, window=40)


def test_estimate_short_series_is_empty():
    series = generate_synthetic_series(seed=16, n=50)
    assert len(estimate_scenarios(series, horizon=5, window=60)) == 0


@pytest.mark.parametrize("a,b", [("nan", "0.1"), ("0.1", "nan"), ("inf", "0.1"),
                                 ("0.1", "inf")])
def test_load_predictions_non_finite_scenario_rejected(a, b):
    text = f"timestamp,p_up,a,b\n3600,0.7,0.1,0.1\n7200,0.7,{a},{b}\n"
    with pytest.raises(DataError, match="line 3"):
        load_predictions(io.StringIO(text))


@pytest.mark.parametrize("ts", ["nan", "inf", "-inf", "9223372036854775808", "-1e19"])
def test_load_predictions_non_finite_timestamp_rejected(ts):
    with pytest.raises(DataError, match="line 2"):
        load_predictions(io.StringIO(f"timestamp,p_up\n{ts},0.7\n"))


# --- the reader shared with parse_candles: the spellings the per-row csv +
# --- float() loader read differently are pinned here.


def test_load_predictions_rejects_digit_separators_by_line():
    text = "timestamp,p_up\n1_577_836_800,0.6\n3600,0.7\n"
    with pytest.raises(DataError, match="malformed row at line 2: .*1_577_836_800"):
        load_predictions(io.StringIO(text))


def test_load_predictions_rejects_lone_carriage_returns_in_a_stream_as_data_error():
    with pytest.raises(DataError, match=r"^malformed row at line 2: Found an unquoted "
                                        r"embedded newline"):
        load_predictions(io.StringIO("timestamp,p_up\n3600,0.6\r7200,0.7\r"))
    with pytest.raises(DataError, match=r"^malformed row at line 4: Found an unquoted "
                                        r"embedded newline"):
        load_predictions(io.StringIO("timestamp,p_up\n3600,0.6\n\n7200,0.7\r10800,0.5\n"))
    with pytest.raises(DataError, match="malformed header"):
        load_predictions(io.StringIO("timestamp,p_up\r3600,0.6\r7200,0.7\r"))


@pytest.mark.parametrize("line", ['""', '" "'])
def test_load_predictions_rejects_quoted_blank_line_by_line(line):
    text = "timestamp,p_up\n3600,0.6\n" + line + "\n7200,0.7\n"
    with pytest.raises(DataError, match="malformed row at line 3"):
        load_predictions(io.StringIO(text))


@pytest.mark.parametrize("blank", ["", "   ", "\t"])
def test_load_predictions_skips_whitespace_only_lines_and_still_counts_them(blank):
    good = "timestamp,p_up\n3600,0.6\n" + blank + "\n7200,0.7\n"
    assert load_predictions(io.StringIO(good))[0].timestamps.tolist() == [3600, 7200]
    with pytest.raises(DataError, match="line 4: p_up"):
        load_predictions(io.StringIO("timestamp,p_up\n3600,0.6\n" + blank + "\n7200,1.5\n"))


@pytest.mark.parametrize("text,message", [
    ("", "empty input: no header row"),
    ("timestamp,p_up\n", "no data rows in input"),
    ("timestamp,p_up\n  \n", "no data rows in input"),
])
def test_load_predictions_empty_input_messages(text, message):
    with pytest.raises(DataError, match=message):
        load_predictions(io.StringIO(text))


# --- frames ---------------------------------------------------------------------


def _frame(kind, ts, n=None):
    n = len(ts) if n is None else n
    values = [np.full(n, 0.5)] * (1 if kind is Predictions else 2)
    return kind(ts, *values)


@pytest.mark.parametrize("kind", [Predictions, Scenarios])
def test_frame_holds_read_only_columns(kind):
    ts = np.array([3600, 7200], np.int64)
    frame = _frame(kind, ts)
    ts[0] = 0  # the frame holds a copy
    assert len(frame) == 2 and frame.timestamps.tolist() == [3600, 7200]
    assert frame.timestamps.dtype == np.int64
    for col in vars(frame).values():
        assert not col.flags.writeable
    assert len(_frame(kind, [])) == 0


@pytest.mark.parametrize("kind", [Predictions, Scenarios])
@pytest.mark.parametrize("ts", [[7200, 3600], [3600, 3600], [0, 7200, 3600]],
                         ids=["decreasing", "duplicate", "shuffled"])
def test_frame_rejects_timestamps_that_do_not_increase(kind, ts):
    with pytest.raises(ValueError, match="strictly increasing"):
        _frame(kind, ts)


@pytest.mark.parametrize("kind", [Predictions, Scenarios])
def test_frame_rejects_unequal_lengths_and_2d_columns(kind):
    with pytest.raises(ValueError, match="one length"):
        _frame(kind, [3600, 7200], n=3)
    with pytest.raises(ValueError, match="1-D"):
        _frame(kind, [[3600, 7200]], n=2)
    with pytest.raises(ValueError, match="1-D"):
        kind([3600, 7200], *[np.full((2, 1), 0.5)] * (1 if kind is Predictions else 2))
