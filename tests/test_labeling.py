import numpy as np
import pytest

from kellybt.candles import generate_synthetic_series
from kellybt.labeling import BarrierConfig, label_series

import oracles
from conftest import make_series_from_ohlc


def _label_at(series, entry, cfg):
    """Row ``entry`` of ``label_series(series, cfg)`` as a per-entry record."""
    return oracles.barrier_label_records(label_series(series, cfg))[entry][1]


def test_clean_upper_touch():
    rows = [
        (100.0, 100.5, 99.5, 100.0),
        (100.5, 102.5, 99.0, 100.2),  # touches 102, not 98
        (100.2, 100.4, 99.9, 100.1),
        (100.1, 100.4, 99.9, 100.0),
        (100.0, 100.4, 99.9, 100.0),
        (100.0, 100.4, 99.9, 100.0),
        (100.0, 100.4, 99.9, 100.0),
    ]
    series = make_series_from_ohlc(rows)
    cfg = BarrierConfig(up_pct=0.02, down_pct=0.02, horizon=5)
    label = _label_at(series, 0, cfg)
    assert label == (1, 1, "UPPER")


def _quiet_path(end_close):
    rows = [(100.0, 100.5, 99.5, 100.0)]
    for i in range(4):
        rows.append((rows[-1][3], 101.5, 98.5, 100.0 + 0.1 * i))
    rows.append((rows[-1][3], 101.5, 98.5, end_close))
    rows.append((end_close, end_close + 0.1, end_close - 0.1, end_close))
    return make_series_from_ohlc(rows)


def test_vertical_sign_positive():
    series = _quiet_path(101.0)
    cfg = BarrierConfig(up_pct=0.02, down_pct=0.02, horizon=5, vertical_rule="SIGN")
    label = _label_at(series, 0, cfg)
    assert label == (1, 5, "VERTICAL")


def test_vertical_zero_rule():
    series = _quiet_path(101.0)
    cfg = BarrierConfig(up_pct=0.02, down_pct=0.02, horizon=5, vertical_rule="ZERO")
    label = _label_at(series, 0, cfg)
    assert label == (0, 5, "VERTICAL")


def test_vertical_sign_flat_close_is_minus_one():
    series = _quiet_path(100.0)
    cfg = BarrierConfig(up_pct=0.02, down_pct=0.02, horizon=5, vertical_rule="SIGN")
    assert _label_at(series, 0, cfg).label == -1


def test_ambiguous_resolved_to_nearer_barrier():
    base = [(100.0, 100.5, 99.5, 100.0)]
    wild_up = base + [(100.2, 103.0, 97.0, 100.0)] + [(100.0, 100.1, 99.9, 100.0)] * 5
    series = make_series_from_ohlc(wild_up)
    cfg = BarrierConfig(up_pct=0.02, down_pct=0.02, horizon=5)
    label = _label_at(series, 0, cfg)
    assert label.hit_kind == "AMBIGUOUS"
    assert label.label == 1  # open 100.2 is nearer 102 than 98

    wild_dn = base + [(99.8, 103.0, 97.0, 100.0)] + [(100.0, 100.1, 99.9, 100.0)] * 5
    series = make_series_from_ohlc(wild_dn)
    label = _label_at(series, 0, cfg)
    assert label.hit_kind == "AMBIGUOUS"
    assert label.label == -1


def test_ambiguous_pessimistic_flag():
    rows = [(100.0, 100.5, 99.5, 100.0),
            (100.2, 103.0, 97.0, 100.0)] + [(100.0, 100.1, 99.9, 100.0)] * 5
    series = make_series_from_ohlc(rows)
    cfg = BarrierConfig(up_pct=0.02, down_pct=0.02, horizon=5, ambiguous_to_lower=True)
    label = _label_at(series, 0, cfg)
    assert label.label == -1 and label.hit_kind == "AMBIGUOUS"


def test_config_validation():
    with pytest.raises(ValueError):
        BarrierConfig(up_pct=0.0)
    with pytest.raises(ValueError):
        BarrierConfig(horizon=0)
    with pytest.raises(ValueError):
        BarrierConfig(vertical_rule="MAYBE")


@pytest.mark.parametrize("rule", ["SIGN", "ZERO"])
def test_oracle_equivalence_500_paths(rule):
    cfg = BarrierConfig(up_pct=0.015, down_pct=0.015, horizon=8, vertical_rule=rule)
    count = 0
    for seed in range(10):
        series = generate_synthetic_series(seed=seed, n=60, volatility=0.012)
        labels = oracles.barrier_label_records(label_series(series, cfg))
        for entry, got in labels[:len(series) - cfg.horizon - 1]:
            assert got == oracles.o_barrier_label(series, entry, cfg)
            count += 1
    assert count >= 500


def test_upper_monotonicity_in_up_pct():
    widths = [0.005, 0.01, 0.02, 0.04]
    for seed in range(8):
        series = generate_synthetic_series(seed=seed, n=80, volatility=0.015)
        by_width = [oracles.barrier_label_records(label_series(
            series, BarrierConfig(up_pct=w, down_pct=0.02, horizon=10))) for w in widths]
        for entry in range(0, 60, 3):
            labels = [records[entry][1] for records in by_width]
            for narrow, wide in zip(labels, labels[1:]):
                if wide.hit_kind == "UPPER":
                    assert narrow.hit_kind in ("UPPER", "AMBIGUOUS")
                    assert narrow.hit_bar <= wide.hit_bar


def test_reflection_symmetry():
    cfg = BarrierConfig(up_pct=0.02, down_pct=0.03, horizon=8, vertical_rule="SIGN")
    mirror_cfg = BarrierConfig(up_pct=0.03, down_pct=0.02, horizon=8,
                               vertical_rule="SIGN")
    for seed in range(6):
        series = generate_synthetic_series(seed=seed, n=40, volatility=0.012)
        entry = 3
        pivot = float(series.close[entry])
        rows = [(2 * pivot - o, 2 * pivot - l, 2 * pivot - h, 2 * pivot - c, v)
                for o, h, l, c, v in zip(series.open, series.high, series.low,
                                         series.close, series.volume)]
        mirrored = make_series_from_ohlc(rows, start_ts=int(series.timestamps[0]))
        a = _label_at(series, entry, cfg)
        b = _label_at(mirrored, entry, mirror_cfg)
        if a.hit_kind in ("UPPER", "LOWER"):
            assert b.label == -a.label
            assert b.hit_bar == a.hit_bar


def test_label_series_stride_counts():
    series = generate_synthetic_series(seed=2, n=10)
    cfg = BarrierConfig(horizon=5)
    assert len(label_series(series, cfg, stride=5)) == 1  # floor((n-1)/horizon)
    assert len(label_series(series, cfg, stride=1)) == 5  # entries 0..4


def test_label_series_nonoverlapping_cover():
    series = generate_synthetic_series(seed=3, n=101)
    cfg = BarrierConfig(horizon=5)
    labeled = label_series(series, cfg, stride=5)
    assert labeled.entry.tolist() == list(range(0, 96, 5))
    assert len(labeled) == (len(series) - 1) // cfg.horizon


def test_label_series_stride_validation():
    series = generate_synthetic_series(seed=3, n=20)
    with pytest.raises(ValueError, match="stride"):
        label_series(series, BarrierConfig(), stride=0)


def test_uptrend_label_distribution():
    series = generate_synthetic_series(seed=4, n=400, drift=0.01, volatility=0.01)
    labeled = label_series(series, BarrierConfig(up_pct=0.02, down_pct=0.02, horizon=5))
    values = labeled.label.tolist()
    assert values.count(1) > values.count(-1)


def test_determinism():
    series = generate_synthetic_series(seed=5, n=50, volatility=0.02)
    cfg = BarrierConfig()
    a = label_series(series, cfg)
    b = label_series(series, cfg)
    for column in ("entry", "label", "hit_bar", "hit_kind"):
        assert getattr(a, column).tolist() == getattr(b, column).tolist()


@pytest.mark.parametrize("field", ["up_pct", "down_pct"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_barrier(field, value):
    # A NaN barrier is never touched, so every label fell through to VERTICAL.
    with pytest.raises(ValueError, match="finite"):
        BarrierConfig(**{field: value})


@pytest.mark.parametrize("down_pct", [1.0, 1.5])
def test_config_rejects_lower_barrier_at_or_below_zero_price(down_pct):
    # A low is always > 0, so it never reached such a barrier: LOWER could not occur.
    with pytest.raises(ValueError, match="down_pct must be < 1"):
        BarrierConfig(down_pct=down_pct)
    assert BarrierConfig(up_pct=1.5).up_pct == 1.5


def test_label_series_is_read_only_column_frame():
    series = generate_synthetic_series(seed=6, n=30, volatility=0.02)
    labeled = label_series(series, BarrierConfig(horizon=4), stride=2)
    assert len(labeled) == 13
    for column in (labeled.entry, labeled.label, labeled.hit_bar, labeled.hit_kind):
        assert len(column) == 13 and not column.flags.writeable
    every = label_series(series, BarrierConfig(horizon=4))
    for column in ("entry", "label", "hit_bar", "hit_kind"):
        assert getattr(labeled, column).tolist() == getattr(every, column)[::2].tolist()


def test_label_series_shorter_than_horizon_is_empty():
    series = generate_synthetic_series(seed=6, n=5)
    labeled = label_series(series, BarrierConfig(horizon=5))
    assert len(labeled) == 0 and labeled.entry.dtype == np.int64
