import numpy as np
import pytest

from kellybt.candles import DataError, generate_synthetic_series
from kellybt.features import LabelSet, make_labels
from kellybt.predictors import (AB_FLOOR, P_CLIP_HI, P_CLIP_LO, Predictions, Scenarios,
                                estimate_scenarios, load_predictions, simulate_balanced,
                                simulate_gaussian, simulate_optimal, write_predictions_csv)

import oracles
from conftest import from_file, make_series_from_closes


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


@pytest.mark.parametrize("p_const, values", [(0.6, {0.6, 0.4}),
                                             (0.999, {P_CLIP_HI, P_CLIP_LO})])
def test_balanced_probability_values(p_const, values):
    labels = _labels(30)
    preds = simulate_balanced(labels, seed=3, p_const=p_const)
    assert set(np.round(preds.p_up, 12).tolist()) <= values


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
    with pytest.raises(ValueError, match="label set is empty"):
        simulate_balanced(LabelSet([], [], [], [], horizon=5), seed=0)


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
    with pytest.raises(ValueError, match="hit_rate"):
        simulate_gaussian(labels, seed=0, hit_rate=0.0)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_gaussian_rejects_non_finite_sigma(sigma):
    # A NaN sigma never draws a value on the predicted side: the walk never ended.
    with pytest.raises(ValueError, match="sigma"):
        simulate_gaussian(_labels(10), seed=0, sigma=sigma)


# --- external predictions -------------------------------------------------------


def test_load_predictions_with_estimates():
    text = "timestamp,p_up,a,b\n1650000000,0.6,0.05,0.04\n"
    preds, ests = from_file(load_predictions, text)
    assert preds.timestamps[0] == 1650000000 and preds.p_up[0] == 0.6
    assert (ests.a[0], ests.b[0]) == (0.05, 0.04)


def test_load_predictions_skips_a_leading_byte_order_mark():
    text = "timestamp,p_up,a,b\n3600,0.6,0.05,0.04\n7200,0.3,0.02,0.01\n"
    (plain, plain_ests), (marked, marked_ests) = (from_file(load_predictions, mark + text)
                                                  for mark in ("", "\ufeff"))
    for got, want in ((marked.timestamps, plain.timestamps), (marked.p_up, plain.p_up),
                      (marked_ests.a, plain_ests.a), (marked_ests.b, plain_ests.b)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for bad, message in (("10800,x,0.1,0.1\n", "malformed row at line 4"),
                         ("10800,1.2,0.1,0.1\n", "line 4: p_up 1.2 outside")):
        with pytest.raises(DataError, match=message):
            from_file(load_predictions, "\ufeff" + text + bad)


def test_load_predictions_probability_out_of_range():
    with pytest.raises(DataError, match="outside"):
        from_file(load_predictions, "timestamp,p_up\n3600,1.2\n")


def test_load_predictions_without_estimate_columns():
    preds, ests = from_file(load_predictions, "timestamp,p_up\n3600,0.7\n")
    assert ests is None and preds.p_up[0] == 0.7


def test_load_predictions_single_scenario_column_rejected():
    with pytest.raises(DataError, match="together"):
        from_file(load_predictions, "timestamp,p_up,a\n3600,0.7,0.01\n")


def test_load_predictions_without_a_timestamp_column_rejected():
    with pytest.raises(DataError, match="prediction file missing column 'timestamp'"):
        from_file(load_predictions, "time,p_up\n3600,0.7\n")


def test_load_predictions_clip_and_floor():
    text = "timestamp,p_up,a,b\n3600,0.999,0.0001,0.5\n"
    preds, ests = from_file(load_predictions, text)
    assert preds.p_up[0] == 0.99
    assert ests.a[0] == AB_FLOOR and ests.b[0] == 0.5


def test_load_predictions_nonpositive_scenario_rejected():
    with pytest.raises(DataError, match="magnitudes"):
        from_file(load_predictions, "timestamp,p_up,a,b\n3600,0.7,-0.1,0.1\n")


def test_load_predictions_duplicate_timestamp():
    text = "timestamp,p_up\n3600,0.7\n3600,0.6\n"
    with pytest.raises(DataError, match="duplicate"):
        from_file(load_predictions, text)


def test_load_predictions_series_alignment():
    series = generate_synthetic_series(seed=1, n=10)
    ts = int(series.timestamps[2])
    preds, _ = from_file(load_predictions, f"timestamp,p_up\n{ts},0.7\n", series)
    assert preds.timestamps[0] == ts
    with pytest.raises(DataError, match="not present"):
        from_file(load_predictions, "timestamp,p_up\n977616000,0.7\n", series)


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


@pytest.mark.parametrize("horizon", [0, -1])
def test_estimate_rejects_a_horizon_below_one(horizon):
    # numpy raised "operands could not be broadcast together" for 0.
    series = generate_synthetic_series(seed=16, n=300)
    with pytest.raises(ValueError, match=f"^horizon must be >= 1, got {horizon}$"):
        estimate_scenarios(series, horizon=horizon)


def test_estimate_short_series_is_empty():
    series = generate_synthetic_series(seed=16, n=50)
    assert len(estimate_scenarios(series, horizon=5, window=60)) == 0


def test_empty_scenarios_are_written_as_the_scenario_header_and_no_rows(tmp_path):
    # Scenarios given but empty are not "no scenarios": no prediction has one.
    preds = Predictions(np.array([3600, 7200]), np.array([0.6, 0.4]))
    write_predictions_csv(preds, Scenarios([], [], []), str(tmp_path / "p.csv"))
    assert (tmp_path / "p.csv").read_text() == "timestamp,p_up,a,b\n"


@pytest.mark.parametrize("a,b", [("nan", "0.1"), ("0.1", "nan"), ("inf", "0.1"),
                                 ("0.1", "inf")])
def test_load_predictions_non_finite_scenario_rejected(a, b):
    text = f"timestamp,p_up,a,b\n3600,0.7,0.1,0.1\n7200,0.7,{a},{b}\n"
    with pytest.raises(DataError, match="line 3"):
        from_file(load_predictions, text)


@pytest.mark.parametrize("ts", ["nan", "inf", "-inf", "9223372036854775808", "-1e19",
                                "3600.5"])
def test_load_predictions_non_finite_timestamp_rejected(ts):
    with pytest.raises(DataError, match="line 2"):
        from_file(load_predictions, f"timestamp,p_up\n{ts},0.7\n")


# --- the reader shared with parse_candles: the spellings the per-row csv +
# --- float() loader read differently are pinned here.


def test_load_predictions_rejects_digit_separators_by_line():
    text = "timestamp,p_up\n1_577_836_800,0.6\n3600,0.7\n"
    with pytest.raises(DataError, match="malformed row at line 2: .*1_577_836_800"):
        from_file(load_predictions, text)


@pytest.mark.parametrize("text, p_up", [
    ("timestamp,p_up\n3600,0.6\r7200,0.7\r", [0.6, 0.7]),
    ("timestamp,p_up\n3600,0.6\n\n7200,0.7\r10800,0.5\n", [0.6, 0.7, 0.5]),
    ("timestamp,p_up\r3600,0.6\r7200,0.7\r", [0.6, 0.7]),
], ids=["rows", "rows-after-a-blank-line", "header"])
def test_load_predictions_reads_lone_carriage_returns_as_line_ends(text, p_up):
    # A file is read with newline="": a lone "\r" ends a line, as "\n" does.
    assert from_file(load_predictions, text)[0].p_up.tolist() == p_up


def test_load_predictions_puts_a_numpy_error_naming_no_row_on_the_line_read_last(monkeypatch):
    # numpy names no row in an "embedded newline" error; the reader then names
    # the last line it handed over, counting the skipped blank line.
    def loadtxt(lines, **kwargs):
        for line in lines:
            if line.startswith("7200"):
                raise ValueError("Found an unquoted embedded newline within a single line")

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    with pytest.raises(DataError, match="^malformed row at line 4: Found an unquoted "):
        from_file(load_predictions, "timestamp,p_up\n3600,0.6\n\n7200,0.7\n10800,0.5\n")


@pytest.mark.parametrize("line", ['""', '" "'])
def test_load_predictions_rejects_quoted_blank_line_by_line(line):
    text = "timestamp,p_up\n3600,0.6\n" + line + "\n7200,0.7\n"
    with pytest.raises(DataError, match="malformed row at line 3"):
        from_file(load_predictions, text)


@pytest.mark.parametrize("blank", ["", "   ", "\t"])
def test_load_predictions_skips_whitespace_only_lines_and_still_counts_them(blank):
    good = "timestamp,p_up\n3600,0.6\n" + blank + "\n7200,0.7\n"
    assert from_file(load_predictions, good)[0].timestamps.tolist() == [3600, 7200]
    with pytest.raises(DataError, match="line 4: p_up"):
        from_file(load_predictions, "timestamp,p_up\n3600,0.6\n" + blank + "\n7200,1.5\n")


@pytest.mark.parametrize("text,message", [
    ("", "empty input: no header row"),
    ("timestamp,p_up\n", "no data rows in input"),
    ("timestamp,p_up\n  \n", "no data rows in input"),
])
def test_load_predictions_empty_input_messages(text, message):
    with pytest.raises(DataError, match=message):
        from_file(load_predictions, text)


# --- frames ---------------------------------------------------------------------


def _frame(kind, ts):
    return kind(ts, *[np.full(len(ts), 0.5)] * (1 if kind is Predictions else 2))


@pytest.mark.parametrize("kind", [Predictions, Scenarios])
@pytest.mark.parametrize("ts", [[7200, 3600], [3600, 3600], [0, 7200, 3600]],
                         ids=["decreasing", "duplicate", "shuffled"])
def test_frame_rejects_timestamps_that_do_not_increase(kind, ts):
    with pytest.raises(ValueError, match="strictly increasing"):
        _frame(kind, ts)
