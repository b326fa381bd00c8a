import json
import statistics

import numpy as np
import pytest

from kellybt import artifacts, features
from kellybt.candles import CandleSeries, generate_synthetic_series
from kellybt.cli import main
from kellybt.features import (DEFAULT_HORIZON, FeatureMatrix, apply_normalizer,
                              build_feature_matrix, default_grid, fit_normalizer,
                              grid_from_config, make_labels, write_norm_stats_json)
from kellybt.indicators import IndicatorSpec

from conftest import make_series_from_closes, make_series_from_ohlc, traced_peak


def test_single_roc_column_warmup_rows():
    series = generate_synthetic_series(seed=1, n=10, volatility=0.01)
    matrix = build_feature_matrix(series, [IndicatorSpec("ROC", (5,))])
    assert matrix.column_names == ("ROC_5",)
    assert len(matrix) == 5
    assert np.array_equal(matrix.timestamps, series.timestamps[5:])


def test_price_model_adds_six_columns():
    series = generate_synthetic_series(seed=2, n=80, volatility=0.01)
    grid = [IndicatorSpec("ROC", (5,)), IndicatorSpec("RSI", (14,))]
    plain = build_feature_matrix(series, grid)
    extra = build_feature_matrix(series, grid, price_model=True)
    assert len(extra.column_names) == len(grid) + 6
    assert extra.column_names[-6:] == ("pc_5h_1", "pc_5h_2", "pc_5h_3", "pc_5h_4",
                                       "pc_5h_5", "market_direction")
    # tail rows fall off: market_direction needs the 5-bar forward close
    assert extra.timestamps[-1] == series.timestamps[-6]
    assert plain.timestamps[-1] == series.timestamps[-1]


def _column(matrix, name):
    return matrix.values[:, matrix.column_names.index(name)]


def test_price_model_trailing_changes_values():
    series = generate_synthetic_series(seed=3, n=60, volatility=0.01)
    matrix = build_feature_matrix(series, [IndicatorSpec("ROC", (5,))], price_model=True)
    c = series.close
    i = 40  # series index; row index offset by warm-up truncation
    row = np.flatnonzero(matrix.timestamps == series.timestamps[i])[0]
    for k in range(1, 6):
        want = (c[i - 5 * (k - 1)] - c[i - 5 * k]) / c[i - 5 * k]
        assert abs(_column(matrix, f"pc_5h_{k}")[row] - want) < 1e-12
    want_dir = 1.0 if c[i + 5] > c[i] else -1.0
    assert _column(matrix, "market_direction")[row] == want_dir


def test_constant_series_relative_columns_zero():
    series = generate_synthetic_series(seed=4, n=60, volatility=0.0)
    grid = [IndicatorSpec("ROC", (5,)), IndicatorSpec("CMO", (9,)),
            IndicatorSpec("TRIX", (7,))]
    matrix = build_feature_matrix(series, grid)
    assert np.allclose(matrix.values, 0.0)


def test_empty_grid_rejected():
    series = generate_synthetic_series(seed=4, n=60)
    with pytest.raises(ValueError, match="empty"):
        build_feature_matrix(series, [])


def test_all_rows_truncated_rejected():
    series = generate_synthetic_series(seed=4, n=8)
    with pytest.raises(ValueError, match="defined"):
        build_feature_matrix(series, [IndicatorSpec("RSI", (14,))])


def test_rows_with_a_non_finite_feature_are_dropped():
    # Closes near 1e200 with a volume jump at bar 20: EFI_RATIO_3's price
    # change times volume change overflows on bars 20-22 only, and those rows
    # go with the warm-up rows, without a numpy warning (an error here).
    rows = [(c, c, c, c, 10.0 if k < 20 else 1e200)
            for k, c in enumerate(1e200 * (1 + 0.01 * np.arange(40)))]
    series = make_series_from_ohlc(rows)
    matrix = build_feature_matrix(series, [IndicatorSpec("ROC", (3,)),
                                           IndicatorSpec("EFI_RATIO", (3,))])
    assert np.array_equal(matrix.timestamps, series.timestamps[np.r_[3:20, 23:40]])
    assert np.isfinite(matrix.values).all()


def test_candles_too_large_for_any_finite_row_are_rejected():
    series = generate_synthetic_series(seed=4, n=400)
    huge = CandleSeries(series.timestamps, *(1e200 * getattr(series, name) for name in
                                             ("open", "high", "low", "close", "volume")))
    with pytest.raises(ValueError, match="no fully defined rows"):
        build_feature_matrix(huge, default_grid())


def _tiny_matrix(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    names = tuple(names or [f"c{i}" for i in range(values.shape[1])])
    ts = np.arange(values.shape[0], dtype=np.int64) * 3600
    return FeatureMatrix(ts, names, values)


def _fit(matrix, train_range):
    return fit_normalizer(matrix.timestamps, matrix.values, matrix.column_names, train_range)


def _normalized(matrix, stats):
    values = matrix.values.copy()
    apply_normalizer(values, stats)
    return FeatureMatrix(matrix.timestamps, matrix.column_names, values, stats)


def test_fit_normalizer_textbook_values():
    matrix = _tiny_matrix([[1.0], [2.0], [3.0]])
    stats = _fit(matrix, (0, 10_000_000))
    assert stats.mean[0] == 2.0
    assert stats.std[0] == 1.0  # sample (n-1) convention
    assert not stats.to_dict()["c0"]["flagged"]


def test_fit_normalizer_constant_column_flagged():
    matrix = _tiny_matrix([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]], names=["a", "b"])
    stats = _fit(matrix, (0, 10_000_000))
    assert [name for name, d in stats.to_dict().items() if d["flagged"]] == ["b"]
    out = _normalized(matrix, stats)
    assert np.allclose(_column(out, "b"), 0.0)


def test_fit_normalizer_needs_two_rows():
    matrix = _tiny_matrix([[1.0]])
    with pytest.raises(ValueError, match="2 training rows"):
        _fit(matrix, (0, 10_000_000))


def test_fit_normalizer_refits_a_column_whose_sum_of_squares_overflows():
    # Column b's std is 1.15e300, but numpy squares the raw deviations, whose
    # sum is not finite: b is fitted again scaled by a power of two.
    rows = [[1.0, 1e300], [2.0, -1e300], [3.0, 1e300]]
    stats = _fit(_tiny_matrix(rows, names=["a", "b"]), (0, 10_000_000))
    for j, col in enumerate(zip(*rows)):
        assert stats.mean[j] == statistics.fmean(col)
        assert stats.std[j] == statistics.stdev(col)


def test_fit_normalizer_rejects_a_column_whose_std_overflows():
    # Every value is finite, but the std, 1.7e308 * sqrt(2), is not.
    matrix = _tiny_matrix([[1.0, 1.7e308], [2.0, -1.7e308]], names=["a", "b"])
    with pytest.raises(ValueError, match="feature column b has a non-finite training mean"):
        _fit(matrix, (0, 10_000_000))


def test_normalized_training_rows_have_zero_mean_unit_std():
    rng = np.random.default_rng(5)
    matrix = _tiny_matrix(rng.normal(3.0, 2.5, size=(50, 4)))
    train_range = (0, int(matrix.timestamps[29]))
    stats = _fit(matrix, train_range)
    out = _normalized(matrix, stats)
    train_rows = out.values[:30]
    assert np.all(np.abs(train_rows.mean(axis=0)) <= 1e-9)
    assert np.all(np.abs(train_rows.std(axis=0, ddof=1) - 1.0) <= 1e-9)


def test_double_normalization_is_identity():
    rng = np.random.default_rng(6)
    matrix = _tiny_matrix(rng.normal(0, 3, size=(40, 3)))
    rng_all = (0, int(matrix.timestamps[-1]))
    once = _normalized(matrix, _fit(matrix, rng_all))
    twice = _normalized(once, _fit(once, rng_all))
    assert np.allclose(twice.values, once.values, atol=1e-9)


def test_normalizer_column_mismatch_rejected():
    stats = _fit(_tiny_matrix([[1.0], [2.0]]), (0, 10_000_000))
    other = _tiny_matrix([[1.0, 2.0], [2.0, 3.0]], names=["x", "y"])
    with pytest.raises(ValueError, match="columns"):
        apply_normalizer(other.values.copy(), stats)


def test_norm_stats_json_round_trip(tmp_path):
    matrix = _tiny_matrix([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]], names=["a", "b"])
    stats = _fit(matrix, (0, 10_000_000))
    path = tmp_path / "stats.json"
    write_norm_stats_json(stats, str(path))
    again = json.loads(path.read_text())
    assert list(again) == list(stats.column_names)
    assert [again[n]["mean"] for n in again] == stats.mean.tolist()
    assert [again[n]["std"] for n in again] == stats.std.tolist()
    assert [again[n]["flagged"] for n in again] == [False, True]


# --- labels -------------------------------------------------------------------


def test_labels_basic_five_percent():
    closes = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0]
    series = make_series_from_closes(closes)
    labels = make_labels(series, horizon=5)
    assert len(labels) == 1
    assert abs(labels.price_change[0] - 0.05) < 1e-12
    assert labels.direction[0] == 1
    assert abs(labels.weight[0] - 0.05) < 1e-12


def test_labels_zero_change_maps_to_minus_one():
    series = generate_synthetic_series(seed=7, n=12, volatility=0.0)
    labels = make_labels(series, horizon=5)
    assert np.all(labels.direction == -1)
    assert np.all(labels.weight == 0.0)


def test_labels_truncate_exactly_horizon_rows():
    series = generate_synthetic_series(seed=8, n=50, volatility=0.01)
    labels = make_labels(series, horizon=5)
    assert len(labels) == 45
    assert np.array_equal(labels.timestamps, series.timestamps[:45])


def test_labels_direction_fraction_matches_recount():
    series = generate_synthetic_series(seed=9, n=400, drift=0.0005, volatility=0.01)
    labels = make_labels(series, horizon=5)
    up = 0
    for i in range(len(series) - 5):
        if series.close[i + 5] > series.close[i]:
            up += 1
    assert int((labels.direction == 1).sum()) == up


def test_labels_weight_normalization():
    series = generate_synthetic_series(seed=10, n=100, volatility=0.02)
    labels = make_labels(series, horizon=5, normalize_weights=True)
    assert abs(labels.weight.mean() - 1.0) < 1e-12


def test_labels_need_more_than_horizon():
    series = generate_synthetic_series(seed=10, n=5)
    with pytest.raises(ValueError, match="horizon"):
        make_labels(series, horizon=5)


@pytest.mark.parametrize("horizon", [0, -2])
def test_horizon_below_one_rejected(horizon):
    series = generate_synthetic_series(seed=10, n=300)
    message = f"^horizon must be >= 1, got {horizon}$"
    with pytest.raises(ValueError, match=message):
        make_labels(series, horizon=horizon)
    with pytest.raises(ValueError, match=message):
        build_feature_matrix(series, [IndicatorSpec("RSI", (14,))], price_model=True,
                             horizon=horizon)
    # Without the price model the horizon is unused.
    build_feature_matrix(series, [IndicatorSpec("RSI", (14,))], horizon=horizon)


def test_no_lookahead_prefix_audit():
    series = generate_synthetic_series(seed=11, n=200, volatility=0.015)
    grid = [IndicatorSpec("RSI", (14,)), IndicatorSpec("MACD", (12, 26)),
            IndicatorSpec("CMF", (20,))]
    full = build_feature_matrix(series, grid)
    for t in (60, 120, 199):
        prefix = build_feature_matrix(series.slice(0, t + 1), grid)
        k = len(prefix)
        assert np.array_equal(prefix.timestamps, full.timestamps[:k])
        assert np.array_equal(prefix.values, full.values[:k])


def test_default_grid_is_valid_and_computable():
    grid = default_grid()
    assert len(grid) == 26
    series = generate_synthetic_series(seed=12, n=200, volatility=0.01)
    matrix = build_feature_matrix(series, grid)
    assert len(matrix) > 0
    assert not np.isnan(matrix.values).any()


def test_grid_from_config():
    grid = grid_from_config([{"kind": "RSI", "periods": [14]},
                             {"kind": "MACD", "periods": [12, 26]},
                             {"kind": "ROC", "period": 10}])
    assert [g.name for g in grid] == ["RSI_14", "MACD_12_26", "ROC_10"]
    with pytest.raises(ValueError, match="periods"):
        grid_from_config([{"kind": "RSI"}])
    with pytest.raises(ValueError, match="^grid entry missing kind"):
        grid_from_config([{"periods": [14]}])


@pytest.mark.parametrize("grid, name", [
    ([IndicatorSpec("RSI", (14,)), IndicatorSpec("RSI", (14,))], "RSI_14"),
    ([IndicatorSpec("EFI", (14,)), IndicatorSpec("EFI_RATIO", (14,))], "EFI_RATIO_14"),
    ([IndicatorSpec("rsi", (14.0,)), IndicatorSpec("ROC", (5,)), IndicatorSpec("RSI", (14,))],
     "RSI_14"),
])
def test_grid_naming_one_column_twice_rejected(grid, name):
    series = generate_synthetic_series(seed=4, n=60)
    with pytest.raises(ValueError, match=f"^indicator column {name} appears more than once"):
        build_feature_matrix(series, grid)


@pytest.mark.parametrize("ts", [[0, 0, 3600], [7200, 3600, 10800]])
def test_feature_matrix_rejects_timestamps_that_do_not_increase(ts):
    with pytest.raises(ValueError, match="strictly increasing"):
        FeatureMatrix(np.array(ts, np.int64), ("x",), np.zeros((3, 1)))


@pytest.mark.parametrize("shape", [(5, 4), (3, 1), (2, 2), (6,), (3, 2, 1), ()])
def test_feature_matrix_rejects_values_not_one_row_per_timestamp_and_column(shape):
    # Such a matrix was built, and write_matrix_csv then failed with a
    # "columns of one length" error that named neither array.
    with pytest.raises(ValueError, match=rf"^feature matrix values must have shape \(3, 2\)"):
        FeatureMatrix(np.arange(3), ("a", "b"), np.zeros(shape))
    assert FeatureMatrix(np.arange(3), ("a", "b"), np.zeros((3, 2))).values.shape == (3, 2)


def test_feature_matrix_copies_values_another_array_can_write():
    # As a frame column is held. The matrix used to flag the caller's view
    # read-only and keep it, so a write through its base changed the matrix.
    base = np.zeros((3, 2))
    view = base[:]
    matrix = FeatureMatrix(np.arange(3), ("a", "b"), view)
    base[0, 0] = 7.0
    assert matrix.values[0, 0] == 0.0
    assert view.flags.writeable and not matrix.values.flags.writeable


def test_build_feature_matrix_peak_memory_is_below_twice_the_matrix():
    # The columns are written into one buffer, compacted in place, and CCI's
    # deviations are taken a block of windows at a time: about 1.4 times the
    # matrix. A list of columns, stacked into a copy and masked into another,
    # peaked at 3.1.
    series = generate_synthetic_series(seed=0, n=20_000)
    matrix, peak = traced_peak(build_feature_matrix, series, default_grid(), True)
    assert peak < 2 * matrix.values.nbytes


def test_fit_normalizer_peak_memory_is_bounded():
    # The training rows are a slice, and their squared deviations are summed
    # a block of rows at a time: the fit holds one block, here a fifth of the
    # matrix, whatever the number of training rows. std over every row at
    # once held a copy of them, 1.0 times the matrix when every row trains,
    # and a boolean-mask copy of the rows peaked at 2.0.
    series = generate_synthetic_series(seed=0, n=20_000)
    matrix = build_feature_matrix(series, default_grid(), price_model=True)
    train = (int(matrix.timestamps[0]), int(matrix.timestamps[-1]))
    _, peak = traced_peak(_fit, matrix, train)
    block = (features._BLOCK_ROWS + 1) * matrix.values.itemsize * len(matrix.column_names)
    assert peak < 1.2 * block < 0.25 * matrix.values.nbytes


def test_build_and_normalize_hold_the_matrix_once():
    # Normalized in the build's buffer, the matrix costs what the raw build
    # does: about 0.35 times its bytes above them. Fitting and applying the
    # normalizer to a built matrix, as a copy, took more than 1.0.
    series = generate_synthetic_series(seed=0, n=20_000)
    ts = series.timestamps
    matrix, peak = traced_peak(build_feature_matrix, series, default_grid(), True,
                               DEFAULT_HORIZON, (int(ts[0]), int(ts[10_000])))
    assert matrix.stats is not None
    assert peak - matrix.values.nbytes < 0.5 * matrix.values.nbytes


def test_features_command_writes_the_buffer_it_normalized(tmp_path, monkeypatch):
    # The matrix write_csv formats is the build's buffer, normalized in
    # place and read-only as a whole, so _row_range reads it without a copy.
    seen = {}
    apply, write = features.apply_normalizer, features.write_matrix_csv

    def spy_apply(values, stats):
        seen["normalized"] = values
        apply(values, stats)

    def spy_write(matrix, path):
        seen["written"] = matrix
        write(matrix, path)

    monkeypatch.setattr(features, "apply_normalizer", spy_apply)
    monkeypatch.setattr(features, "write_matrix_csv", spy_write)
    generate_synthetic_series(seed=3, n=2_000).to_csv(str(tmp_path / "candles.csv"))
    main(["features", "--input", str(tmp_path / "candles.csv"), "--price-model",
          "--train-end", "2020-02-01", "--out", str(tmp_path / "out")])
    written = seen["written"]
    assert written.stats is not None
    assert artifacts._read_only(written.values)
    assert np.shares_memory(written.values, seen["normalized"])
    assert written.values.base.shape == (2_000, len(written.column_names))
