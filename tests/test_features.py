import numpy as np
import pytest

from kellybt.candles import generate_synthetic_series
from kellybt.features import (FeatureMatrix, apply_normalizer,
                              build_feature_matrix, default_grid, fit_normalizer,
                              grid_from_config, make_labels,
                              read_norm_stats_json, write_norm_stats_json)
from kellybt.indicators import IndicatorSpec

from conftest import make_series_from_closes


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


def test_price_model_trailing_changes_values():
    series = generate_synthetic_series(seed=3, n=60, volatility=0.01)
    matrix = build_feature_matrix(series, [IndicatorSpec("ROC", (5,))], price_model=True)
    c = series.close
    i = 40  # series index; row index offset by warm-up truncation
    row = np.flatnonzero(matrix.timestamps == series.timestamps[i])[0]
    for k in range(1, 6):
        want = (c[i - 5 * (k - 1)] - c[i - 5 * k]) / c[i - 5 * k]
        assert abs(matrix.column(f"pc_5h_{k}")[row] - want) < 1e-12
    want_dir = 1.0 if c[i + 5] > c[i] else -1.0
    assert matrix.column("market_direction")[row] == want_dir


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


def _tiny_matrix(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    names = tuple(names or [f"c{i}" for i in range(values.shape[1])])
    ts = np.arange(values.shape[0], dtype=np.int64) * 3600
    return FeatureMatrix(ts, names, values)


def test_fit_normalizer_textbook_values():
    matrix = _tiny_matrix([[1.0], [2.0], [3.0]])
    stats = fit_normalizer(matrix, (0, 10_000_000))
    assert stats.mean[0] == 2.0
    assert stats.std[0] == 1.0  # sample (n-1) convention
    assert stats.flagged == ()


def test_fit_normalizer_constant_column_flagged():
    matrix = _tiny_matrix([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]], names=["a", "b"])
    stats = fit_normalizer(matrix, (0, 10_000_000))
    assert stats.flagged == ("b",)
    out = apply_normalizer(matrix, stats)
    assert np.allclose(out.column("b"), 0.0)


def test_fit_normalizer_needs_two_rows():
    matrix = _tiny_matrix([[1.0]])
    with pytest.raises(ValueError, match="2 training rows"):
        fit_normalizer(matrix, (0, 10_000_000))


def test_normalized_training_rows_have_zero_mean_unit_std():
    rng = np.random.default_rng(5)
    matrix = _tiny_matrix(rng.normal(3.0, 2.5, size=(50, 4)))
    train_range = (0, int(matrix.timestamps[29]))
    stats = fit_normalizer(matrix, train_range)
    out = apply_normalizer(matrix, stats)
    train_rows = out.values[:30]
    assert np.all(np.abs(train_rows.mean(axis=0)) <= 1e-9)
    assert np.all(np.abs(train_rows.std(axis=0, ddof=1) - 1.0) <= 1e-9)


def test_double_normalization_is_identity():
    rng = np.random.default_rng(6)
    matrix = _tiny_matrix(rng.normal(0, 3, size=(40, 3)))
    rng_all = (0, int(matrix.timestamps[-1]))
    once = apply_normalizer(matrix, fit_normalizer(matrix, rng_all))
    twice = apply_normalizer(once, fit_normalizer(once, rng_all))
    assert np.allclose(twice.values, once.values, atol=1e-9)


def test_normalizer_column_mismatch_rejected():
    stats = fit_normalizer(_tiny_matrix([[1.0], [2.0]]), (0, 10_000_000))
    other = _tiny_matrix([[1.0, 2.0], [2.0, 3.0]], names=["x", "y"])
    with pytest.raises(ValueError, match="columns"):
        apply_normalizer(other, stats)


def test_norm_stats_json_round_trip(tmp_path):
    matrix = _tiny_matrix([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]], names=["a", "b"])
    stats = fit_normalizer(matrix, (0, 10_000_000))
    path = tmp_path / "stats.json"
    write_norm_stats_json(stats, str(path))
    again = read_norm_stats_json(str(path))
    assert again.column_names == stats.column_names
    assert np.array_equal(again.mean, stats.mean)
    assert np.array_equal(again.std, stats.std)
    assert again.flagged == ("b",)


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
