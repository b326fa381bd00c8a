import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from kellybt import indicators
from kellybt.candles import generate_synthetic_series
from kellybt.indicators import (_WINDOW_BLOCK, IndicatorSpec, _cci, _ema_array, _window_extremes,
                                _window_sums, compute_indicator)

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

# Index of each spec's first defined bar.
WARMUP = {"TRIX_9": 3 * 8 + 1, "MACD_12_26": 25, "PPO_12_26": 25, "ROC_10": 10,
          "EFI_RATIO_13": 13, "EFI_STANDARD_13": 13, "CMO_14": 14, "RSI_14": 14,
          "CCI_20": 19, "WILLIAMS_R_14": 13, "CMF_20": 19}

BOUNDS = {"RSI": (0.0, 100.0), "WILLIAMS_R": (-100.0, 0.0),
          "CMO": (-100.0, 100.0), "CMF": (-1.0, 1.0)}


def _assert_close_nan(got, want, tol):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan_ok = np.isnan(got) == np.isnan(want)
    assert nan_ok.all(), f"NaN pattern differs at {np.flatnonzero(~nan_ok)[:5]}"
    mask = ~np.isnan(want)
    assert np.allclose(got[mask], want[mask], rtol=0, atol=tol)


# --- EMA ----------------------------------------------------------------------


def test_constant_input_fixed_point():
    out = _ema_array(np.full(40, 7.5), 10)
    assert out.size == 40 - 9
    assert np.allclose(out, 7.5)


def test_ema_matches_recurrence_oracle():
    rng = np.random.default_rng(3)
    xs = rng.normal(100, 5, size=100)
    out = _ema_array(xs, 3)
    _assert_close_nan(out, oracles.o_ema(list(xs), 3)[2:], 1e-12)


def test_ema_too_short_is_all_nan():
    # No bar is defined: the reference is all NaN, and its tail is empty.
    x = np.array([1.0, 2.0])
    assert np.isnan(oracles.o_ema_array(x, 5)).all()
    assert _ema_array(x, 5).size == 0 == oracles.o_ema_array(x, 5)[4:].size


def _bits(x):
    return np.asarray(x, np.float64).view(np.int64)


@pytest.mark.parametrize("size, warmup, n", [
    (500, 0, 1), (500, 0, 14), (500, 37, 28), (40, 30, 10),  # NaN warm-up prefixes
    (5, 0, 14), (20, 10, 14), (0, 0, 3), (3, 3, 1),          # shorter than n
])
def test_ema_is_bit_identical_to_the_per_index_loop(size, warmup, n):
    # The reference skips a NaN prefix; _ema_array takes the defined values
    # only and returns the tail the reference writes after its warm-up.
    rng = np.random.default_rng(size + warmup + n)
    x = rng.normal(100, 5, size) * 10.0 ** rng.integers(-3, 4, size)
    x[:warmup] = np.nan
    assert np.array_equal(_bits(_ema_array(x[warmup:], n)),
                          _bits(oracles.o_ema_array(x, n)[warmup + n - 1:]))
    # Nested, as TRIX uses it: each level's reference input starts with the
    # NaNs the last level wrote, and each tail is n - 1 bars shorter.
    got, want = x[warmup:], x
    for level in range(1, 4):
        got, want = _ema_array(got, n), oracles.o_ema_array(want, n)
        assert np.array_equal(_bits(got), _bits(want[warmup + level * (n - 1):]))


@pytest.mark.parametrize("n", [7, 14, 28])
def test_cci_blocks_are_bit_identical_to_the_whole_array_expression(n):
    # Three full blocks of windows plus a remainder, and a flat stretch across
    # the first block boundary: every price there is 100.0, so each window's
    # mean is exact and its mean deviation is 0.
    size = 3 * _WINDOW_BLOCK + 123 + n - 1
    rng = np.random.default_rng(n)
    c = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, size)))
    h = c * (1.0 + rng.uniform(0.0, 0.01, size))
    l = c * (1.0 - rng.uniform(0.0, 0.01, size))
    flat = slice(_WINDOW_BLOCK - 40, _WINDOW_BLOCK + 40)
    h[flat] = l[flat] = c[flat] = 100.0
    got = _cci(h, l, c, None, n)  # got[i] is the window of bars i .. i + n - 1
    assert np.array_equal(_bits(got), _bits(oracles.o_cci_array(h, l, c, n)[n - 1:]))
    assert np.all(got[flat.start:flat.stop - n + 1] == 0.0)


def _wide_draws(rng, size):
    """Values of both signs with magnitudes from 1e-300 to 1e300, a tenth of
    them 0.0 and a tenth -0.0, and a run of -0.0 long enough to fill windows."""
    x = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, 300, size)
    x[rng.random(size) < 0.1] = 0.0
    x[rng.random(size) < 0.1] = -0.0
    x[size // 3:size // 3 + 320] = -0.0
    return x


@pytest.mark.parametrize("size", [2048, 2047, 2049, 3 * 2048 + 123])
def test_window_sums_are_bit_identical_to_numpys_row_sums(monkeypatch, size):
    # The block only decides which windows share a pass; 2048 puts these
    # lengths at, around and well past block ends at little cost.
    monkeypatch.setattr(indicators, "_WINDOW_BLOCK", 2048)
    rng = np.random.default_rng(size)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, 301):
            x = _wide_draws(rng, size + n - 1)
            windows = sliding_window_view(x, n)
            assert np.array_equal(_bits(_window_sums(x, n)), _bits(windows.sum(axis=1))), n
            mean = windows.mean(axis=1)
            assert np.array_equal(_bits(_window_sums(x, n, center=mean)),
                                  _bits(np.abs(windows - mean[:, None]).sum(axis=1))), n


def test_window_extremes_equal_numpys_row_extremes():
    rng = np.random.default_rng(11)
    x = rng.normal(0.0, 1e3, 500)
    for value in (np.nan, np.inf, -np.inf):
        x[rng.integers(0, x.size, 25)] = value
    for n in [*range(1, 61), x.size]:
        windows = sliding_window_view(x, n)
        assert np.array_equal(_bits(_window_extremes(x, n, np.maximum)),
                              _bits(windows.max(axis=1))), n
        assert np.array_equal(_bits(_window_extremes(x, n, np.minimum)),
                              _bits(windows.min(axis=1))), n
    assert _window_extremes(x, x.size + 1, np.maximum).size == 0


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


@pytest.mark.parametrize("period, message", [
    *((p, "periods must be integers") for p in (14.7, True, "14", None, float("nan"))),
    (0, "periods must be >= 1"), (-3, "periods must be >= 1"),
])
def test_spec_rejects_non_integral_or_bool_period(period, message):
    with pytest.raises(ValueError, match=message):
        IndicatorSpec("RSI", (period,))


def test_spec_accepts_integral_float_period():
    assert IndicatorSpec("RSI", (14.0,)).periods == (14,)


# --- formula endpoints --------------------------------------------------------


def test_rsi_all_rising_is_100():
    series = make_series_from_closes([100 + i for i in range(20)])
    out = compute_indicator(series, IndicatorSpec("RSI", (14,)))
    assert np.allclose(out[14:], 100.0)


def test_williams_r_endpoints():
    rows = []
    price = 100.0
    for i in range(15):
        rows.append((price, price + 2.0, price - 2.0, price + 2.0))
    series = make_series_from_ohlc(rows)  # close at the window high
    out = compute_indicator(series, IndicatorSpec("WILLIAMS_R", (14,)))
    assert abs(out[-1] - 0.0) < 1e-12

    rows = [(price, price + 2.0, price - 2.0, price - 2.0) for _ in range(15)]
    series = make_series_from_ohlc(rows)  # close at the window low
    out = compute_indicator(series, IndicatorSpec("WILLIAMS_R", (14,)))
    assert abs(out[-1] - (-100.0)) < 1e-12


def test_roc_ten_percent():
    closes = [100.0] * 10 + [110.0]
    series = make_series_from_closes(closes)
    out = compute_indicator(series, IndicatorSpec("ROC", (10,)))
    assert abs(out[-1] - 10.0) < 1e-12


def test_cmo_balanced_gains_and_losses():
    closes = [100.0, 102.0, 100.0, 102.0, 100.0]
    series = make_series_from_closes(closes)
    out = compute_indicator(series, IndicatorSpec("CMO", (4,)))
    assert abs(out[-1]) < 1e-12


def test_constant_price_relative_indicators_are_zero():
    series = generate_synthetic_series(seed=1, n=60, drift=0.0, volatility=0.0)
    for kind, periods in (("ROC", (10,)), ("CMO", (14,)), ("TRIX", (9,))):
        out = compute_indicator(series, IndicatorSpec(kind, periods))
        defined = out[~np.isnan(out)]
        assert defined.size > 0
        assert np.allclose(defined, 0.0)


# --- division-by-zero conventions ----------------------------------------------


def test_rsi_zero_loss_convention_on_constant():
    series = generate_synthetic_series(seed=1, n=30, volatility=0.0)
    out = compute_indicator(series, IndicatorSpec("RSI", (14,)))
    assert np.allclose(out[14:], 100.0)


def test_williams_r_and_cmf_undefined_when_high_equals_low():
    series = generate_synthetic_series(seed=1, n=30, volatility=0.0)
    for kind in ("WILLIAMS_R", "CMF"):
        out = compute_indicator(series, IndicatorSpec(kind, (14,)))
        assert np.isnan(out).all()


def test_cci_zero_mean_deviation_is_zero():
    series = generate_synthetic_series(seed=1, n=30, volatility=0.0)
    out = compute_indicator(series, IndicatorSpec("CCI", (14,)))
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
    out = compute_indicator(series, IndicatorSpec("EFI_RATIO", (2,)))
    assert math.isnan(out[4])
    assert not math.isnan(out[5])


# --- oracle equivalence ---------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_oracle_equivalence_1000_candles(spec):
    series = generate_synthetic_series(seed=77, n=1000, drift=0.0002, volatility=0.015)
    got = compute_indicator(series, spec)
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
    full = compute_indicator(series, spec)[k:]
    shifted = compute_indicator(series.slice(k, len(series)), spec)
    mask = ~np.isnan(shifted)  # beyond the shifted series' own warm-up
    assert mask.sum() > 300
    assert np.array_equal(full[mask], shifted[mask])


@pytest.mark.parametrize("spec", EMA_KINDS, ids=lambda s: s.name)
def test_shift_equivariance_asymptotic_for_ema_kinds(spec):
    # The SMA seed differs after dropping candles; the discrepancy decays
    # geometrically, so the tails must agree.
    series = generate_synthetic_series(seed=6, n=1200, volatility=0.02)
    k = 5
    full = compute_indicator(series, spec)[k:]
    shifted = compute_indicator(series.slice(k, len(series)), spec)
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
    base = compute_indicator(series, spec)
    scaled = compute_indicator(_scaled(series, 3.0), spec)
    _assert_close_nan(scaled, base, 1e-8)


def test_macd_scales_linearly():
    spec = IndicatorSpec("MACD", (12, 26))
    series = generate_synthetic_series(seed=8, n=300, volatility=0.02)
    base = compute_indicator(series, spec)
    scaled = compute_indicator(_scaled(series, 3.0), spec)
    _assert_close_nan(scaled, 3.0 * base, 1e-8)


# --- warm-up -------------------------------------------------------------------


def test_warmup_prefix_is_nan_never_zero():
    series = generate_synthetic_series(seed=9, n=120, volatility=0.02)
    for spec in ALL_SPECS:
        out = compute_indicator(series, spec)
        first = WARMUP[spec.name]
        assert np.isnan(out[:first]).all(), spec.name
        assert not math.isnan(out[first]), spec.name


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_too_short_series_is_all_nan(spec):
    first = WARMUP[spec.name]
    for n in (1, 5, first):  # the last is one bar short of the first defined value
        series = generate_synthetic_series(seed=10, n=n, volatility=0.02)
        assert np.isnan(compute_indicator(series, spec)).all(), n
    # Exactly long enough: only the last bar is defined.
    series = generate_synthetic_series(seed=10, n=first + 1, volatility=0.02)
    out = compute_indicator(series, spec)
    assert np.isnan(out[:-1]).all() and not math.isnan(out[-1])
    # A period no series reaches, as a grid config may give: all NaN, no error.
    huge = IndicatorSpec(spec.kind, spec.periods[:-1] + (2 ** 62,))
    out = compute_indicator(series, huge)
    assert out.shape == (first + 1,) and np.isnan(out).all()
