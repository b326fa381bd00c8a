import math

import numpy as np
import pytest

from kellybt.candles import generate_synthetic_series
from kellybt.indicators import IndicatorSpec, ValueSeries, compute_indicator, smooth

import oracles
from conftest import make_series_from_closes, make_series_from_ohlc

ALL_SPECS = [
    IndicatorSpec("TRIX", (9,)),
    IndicatorSpec("MACD", (12, 26)),
    IndicatorSpec("PPO", (12, 26)),
    IndicatorSpec("ROC", (10,)),
    IndicatorSpec("EFI_RATIO", (13,)),
    IndicatorSpec("EFI_STANDARD", (13,)),
    IndicatorSpec("CMO", (14,)),
    IndicatorSpec("RSI", (14,)),
    IndicatorSpec("CCI", (20,)),
    IndicatorSpec("WILLIAMS_R", (14,)),
    IndicatorSpec("CMF", (20,)),
]

BOUNDS = {"RSI": (0.0, 100.0), "WILLIAMS_R": (-100.0, 0.0),
          "CMO": (-100.0, 100.0), "CMF": (-1.0, 1.0)}


def _vs(values):
    ts = np.arange(len(values), dtype=np.int64) * 3600
    return ValueSeries("x", ts, np.asarray(values, dtype=np.float64))


def _assert_close_nan(got, want, tol):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan_ok = np.isnan(got) == np.isnan(want)
    assert nan_ok.all(), f"NaN pattern differs at {np.flatnonzero(~nan_ok)[:5]}"
    mask = ~np.isnan(want)
    assert np.allclose(got[mask], want[mask], rtol=0, atol=tol)


# --- smoothing ----------------------------------------------------------------


def test_sma_basic():
    out = smooth(_vs([1.0, 3.0, 5.0]), "SMA", 2).values
    assert math.isnan(out[0])
    assert out[1] == 2.0 and out[2] == 4.0


def test_constant_input_fixed_point():
    const = _vs([7.5] * 40)
    for kind in ("SMA", "EMA"):
        out = smooth(const, kind, 10).values
        assert np.isnan(out[:9]).all()
        assert np.allclose(out[9:], 7.5)


def test_ema_matches_recurrence_oracle():
    rng = np.random.default_rng(3)
    xs = rng.normal(100, 5, size=100)
    out = smooth(_vs(xs), "EMA", 3).values
    _assert_close_nan(out, oracles.o_ema(list(xs), 3), 1e-12)


def test_smooth_too_short_is_all_nan():
    out = smooth(_vs([1.0, 2.0]), "SMA", 5).values
    assert np.isnan(out).all()


def test_smooth_rejects_unknown_kind():
    with pytest.raises(ValueError):
        smooth(_vs([1.0]), "WMA", 3)


# --- spec construction --------------------------------------------------------


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown indicator"):
        IndicatorSpec("VWAP", (5,))
    with pytest.raises(ValueError, match="kind must be a string"):
        IndicatorSpec(5, (14,))


def test_spec_rejects_bad_arity():
    with pytest.raises(ValueError, match="period"):
        IndicatorSpec("RSI", (14, 7))
    with pytest.raises(ValueError, match="period"):
        IndicatorSpec("MACD", (12,))


def test_spec_macd_needs_fast_below_slow():
    with pytest.raises(ValueError, match="fast"):
        IndicatorSpec("MACD", (26, 12))


def test_spec_efi_alias():
    assert IndicatorSpec("EFI", (13,)).kind == "EFI_RATIO"
    assert IndicatorSpec("efi", (13,)).name == "EFI_RATIO_13"


@pytest.mark.parametrize("period", [14.7, True, "14", None, float("nan")])
def test_spec_rejects_non_integral_or_bool_period(period):
    with pytest.raises(ValueError, match="integers"):
        IndicatorSpec("RSI", (period,))


def test_spec_accepts_integral_float_period():
    assert IndicatorSpec("RSI", (14.0,)).periods == (14,)


# --- formula endpoints --------------------------------------------------------


def test_rsi_all_rising_is_100():
    series = make_series_from_closes([100 + i for i in range(20)])
    out = compute_indicator(series, IndicatorSpec("RSI", (14,))).values
    assert np.allclose(out[14:], 100.0)


def test_williams_r_endpoints():
    rows = []
    price = 100.0
    for i in range(15):
        rows.append((price, price + 2.0, price - 2.0, price + 2.0))
    series = make_series_from_ohlc(rows)  # close at the window high
    out = compute_indicator(series, IndicatorSpec("WILLIAMS_R", (14,))).values
    assert abs(out[-1] - 0.0) < 1e-12

    rows = [(price, price + 2.0, price - 2.0, price - 2.0) for _ in range(15)]
    series = make_series_from_ohlc(rows)  # close at the window low
    out = compute_indicator(series, IndicatorSpec("WILLIAMS_R", (14,))).values
    assert abs(out[-1] - (-100.0)) < 1e-12


def test_roc_ten_percent():
    closes = [100.0] * 10 + [110.0]
    series = make_series_from_closes(closes)
    out = compute_indicator(series, IndicatorSpec("ROC", (10,))).values
    assert abs(out[-1] - 10.0) < 1e-12


def test_cmo_balanced_gains_and_losses():
    closes = [100.0, 102.0, 100.0, 102.0, 100.0]
    series = make_series_from_closes(closes)
    out = compute_indicator(series, IndicatorSpec("CMO", (4,))).values
    assert abs(out[-1]) < 1e-12


def test_constant_price_relative_indicators_are_zero():
    series = generate_synthetic_series(seed=1, n=60, drift=0.0, volatility=0.0)
    for kind, periods in (("ROC", (10,)), ("CMO", (14,)), ("TRIX", (9,))):
        out = compute_indicator(series, IndicatorSpec(kind, periods)).values
        defined = out[~np.isnan(out)]
        assert defined.size > 0
        assert np.allclose(defined, 0.0)


# --- division-by-zero conventions ----------------------------------------------


def test_rsi_zero_loss_convention_on_constant():
    series = generate_synthetic_series(seed=1, n=30, volatility=0.0)
    out = compute_indicator(series, IndicatorSpec("RSI", (14,))).values
    assert np.allclose(out[14:], 100.0)


def test_williams_r_and_cmf_undefined_when_high_equals_low():
    series = generate_synthetic_series(seed=1, n=30, volatility=0.0)
    for kind in ("WILLIAMS_R", "CMF"):
        out = compute_indicator(series, IndicatorSpec(kind, (14,))).values
        assert np.isnan(out).all()


def test_cci_zero_mean_deviation_is_zero():
    series = generate_synthetic_series(seed=1, n=30, volatility=0.0)
    out = compute_indicator(series, IndicatorSpec("CCI", (14,))).values
    assert np.allclose(out[13:], 0.0)


def test_efi_ratio_zero_volume_is_undefined():
    closes = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0]
    rows = []
    prev = closes[0]
    for i, c in enumerate(closes):
        vol = 0.0 if i == 4 else 10.0
        rows.append((prev, max(prev, c), min(prev, c), c, vol))
        prev = c
    series = make_series_from_ohlc(rows)
    out = compute_indicator(series, IndicatorSpec("EFI_RATIO", (2,))).values
    assert math.isnan(out[4])
    assert not math.isnan(out[5])


# --- oracle equivalence ---------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_oracle_equivalence_1000_candles(spec):
    series = generate_synthetic_series(seed=77, n=1000, drift=0.0002, volatility=0.015)
    got = compute_indicator(series, spec).values
    want = oracles.oracle_indicator(series, spec.kind, spec.periods)
    _assert_close_nan(got, want, 1e-9)
    if spec.kind in BOUNDS:
        lo, hi = BOUNDS[spec.kind]
        defined = got[~np.isnan(got)]
        assert defined.size > 0
        assert defined.min() >= lo - 1e-9 and defined.max() <= hi + 1e-9


# --- invariance properties --------------------------------------------------------


WINDOW_KINDS = [s for s in ALL_SPECS
                if s.kind in ("ROC", "EFI_RATIO", "CMO", "RSI", "CCI",
                              "WILLIAMS_R", "CMF")]
EMA_KINDS = [s for s in ALL_SPECS
             if s.kind in ("TRIX", "MACD", "PPO", "EFI_STANDARD")]


@pytest.mark.parametrize("spec", WINDOW_KINDS, ids=lambda s: s.name)
def test_shift_equivariance_exact_for_window_kinds(spec):
    series = generate_synthetic_series(seed=6, n=400, volatility=0.02)
    k = 7
    full = compute_indicator(series, spec).values[k:]
    shifted = compute_indicator(series.slice(k, len(series)), spec).values
    mask = ~np.isnan(shifted)  # beyond the shifted series' own warm-up
    assert mask.sum() > 300
    assert np.array_equal(full[mask], shifted[mask])


@pytest.mark.parametrize("spec", EMA_KINDS, ids=lambda s: s.name)
def test_shift_equivariance_asymptotic_for_ema_kinds(spec):
    # The SMA seed differs after dropping candles; the discrepancy decays
    # geometrically, so the tails must agree.
    series = generate_synthetic_series(seed=6, n=1200, volatility=0.02)
    k = 5
    full = compute_indicator(series, spec).values[k:]
    shifted = compute_indicator(series.slice(k, len(series)), spec).values
    tail = slice(-400, None)
    _assert_close_nan(full[tail], shifted[tail], 1e-9)


SCALE_INVARIANT = ("ROC", "RSI", "CMO", "PPO", "TRIX", "WILLIAMS_R", "CMF")


def _scaled(series, c):
    return make_series_from_ohlc(
        [(o * c, h * c, l * c, cl * c, v) for o, h, l, cl, v in
         zip(series.open, series.high, series.low, series.close, series.volume)],
        start_ts=int(series.timestamps[0]))


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.kind in SCALE_INVARIANT],
                         ids=lambda s: s.name)
def test_scale_invariance(spec):
    series = generate_synthetic_series(seed=8, n=300, volatility=0.02)
    base = compute_indicator(series, spec).values
    scaled = compute_indicator(_scaled(series, 3.0), spec).values
    _assert_close_nan(scaled, base, 1e-8)


def test_macd_scales_linearly():
    spec = IndicatorSpec("MACD", (12, 26))
    series = generate_synthetic_series(seed=8, n=300, volatility=0.02)
    base = compute_indicator(series, spec).values
    scaled = compute_indicator(_scaled(series, 3.0), spec).values
    _assert_close_nan(scaled, 3.0 * base, 1e-8)


# --- warm-up -------------------------------------------------------------------


def test_warmup_prefix_is_nan_never_zero():
    series = generate_synthetic_series(seed=9, n=120, volatility=0.02)
    warmup = {"TRIX_9": 3 * 8 + 1, "MACD_12_26": 25, "PPO_12_26": 25, "ROC_10": 10,
              "EFI_RATIO_13": 13, "EFI_STANDARD_13": 13, "CMO_14": 14, "RSI_14": 14,
              "CCI_20": 19, "WILLIAMS_R_14": 13, "CMF_20": 19}
    for spec in ALL_SPECS:
        out = compute_indicator(series, spec)
        first = warmup[spec.name]
        assert np.isnan(out.values[:first]).all(), spec.name
        assert not math.isnan(out.values[first]), spec.name
        assert out.defined_from == first


def test_too_short_series_is_all_nan():
    series = generate_synthetic_series(seed=10, n=5, volatility=0.02)
    out = compute_indicator(series, IndicatorSpec("RSI", (14,)))
    assert np.isnan(out.values).all()
