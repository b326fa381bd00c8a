"""Property tests: every loader either rejects a corrupted field with a
DataError naming its line or yields finite values, both loaders read or
reject the same field spelling, what the CSV writers write their loaders
read back unchanged, and the backtest's stride lattice keeps one trade grid
for every policy, the aggregate exposure under the leverage cap and the
equity at or above zero, cut at the first ruin point. The barrier-label
kernel equals the per-entry scan, no causal stage reads a bar past a prefix
cut, and every sizing policy is non-decreasing in p."""
import io
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellybt.backtest import BacktestConfig, compare_strategies
from kellybt.candles import (HOUR, CandleSeries, DataError, generate_synthetic_series,
                            parse_candles, parse_candles_text, positions)
from kellybt.features import apply_normalizer, build_feature_matrix, fit_normalizer
from kellybt.indicators import ARITY, IndicatorSpec, compute_indicator
from kellybt.labeling import BarrierConfig, label_series
from kellybt.predictors import (AB_FLOOR, Predictions, Scenarios, estimate_scenarios,
                                load_predictions, write_predictions_csv)
from kellybt.sizing import SizingPolicy, decide

import oracles

# Derandomized and bounded so the suite stays fast and reproducible.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

seeds = st.integers(0, 2**32 - 1)
# Zero volatility gives flat bars, which drive the zero-division conventions.
volatilities = st.sampled_from([0.0, 0.002, 0.02])
# Non-finite spellings, any float repr, or short text without CSV delimiters.
bad_fields = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", ""]),
    st.floats().map(repr),
    st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
            max_size=8),
)


@st.composite
def periods_for(draw, kind):
    if ARITY[kind] == 2:
        slow = draw(st.integers(2, 40))
        return (draw(st.integers(1, slow - 1)), slow)
    return (draw(st.integers(1, 40)),)


def _corrupt(text: str, row: int, field: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[field] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _names_line(exc: DataError, lineno: int) -> bool:
    return re.search(rf"\bline {lineno}\b", str(exc)) is not None


@PROPERTY
@given(data=st.data(), seed=seeds, n=st.integers(1, 30), bad=bad_fields)
def test_parse_candles_rejects_corrupt_field_by_line_or_stays_finite(data, seed, n, bad):
    series = generate_synthetic_series(seed=seed, n=n, volatility=0.02)
    buf = io.StringIO()
    series.to_csv(buf)
    row = data.draw(st.integers(0, n - 1))
    text = _corrupt(buf.getvalue(), row, data.draw(st.integers(0, 5)), bad)
    try:
        got = parse_candles_text(text)
    except DataError as exc:
        assert _names_line(exc, row + 2), str(exc)
    else:
        for col in (got.open, got.high, got.low, got.close, got.volume):
            assert np.isfinite(col).all()


@PROPERTY
@given(data=st.data(), seed=seeds, n=st.integers(1, 30), bad=bad_fields)
def test_load_predictions_rejects_corrupt_field_by_line_or_stays_finite(data, seed, n, bad):
    series = generate_synthetic_series(seed=seed, n=n)
    rng = np.random.default_rng(seed)
    p_up = rng.uniform(0.01, 0.99, n)
    a, b = rng.uniform(0.001, 0.2, (2, n))
    text = "timestamp,p_up,a,b\n" + "".join(
        f"{int(t)},{float(p)!r},{float(x)!r},{float(y)!r}\n"
        for t, p, x, y in zip(series.timestamps, p_up, a, b))
    row = data.draw(st.integers(0, n - 1))
    text = _corrupt(text, row, data.draw(st.integers(0, 3)), bad)
    try:
        preds, ests = load_predictions(io.StringIO(text), series)
    except DataError as exc:
        assert _names_line(exc, row + 2), str(exc)
    else:
        assert np.isfinite(preds.p_up).all()
        assert np.isfinite(ests.a).all() and np.isfinite(ests.b).all()


def _reads(load, text: str) -> bool:
    """Whether ``load`` gets past the reader: only a reader rejection (a
    malformed row) counts against it, not a value check."""
    try:
        load(io.StringIO(text))
    except DataError as exc:
        return not str(exc).startswith("malformed row")
    return True


@PROPERTY
@given(field=st.one_of(bad_fields,
                      st.sampled_from(["1_0", "１0", " 10 ", '"10"', "1e5", "0x10"])))
def test_both_loaders_read_or_reject_the_same_field_spelling(field):
    # The field is the volume cell in one file and p_up in the other; every
    # other cell is valid in both.
    candles = ("timestamp,open,high,low,close,volume\n3600,100,101,99,100,1\n"
               f"7200,100,101,99,100,{field}\n")
    predictions = f"timestamp,p_up\n3600,0.6\n7200,{field}\n"
    assert _reads(parse_candles, candles) == _reads(load_predictions, predictions)


@PROPERTY
@given(seed=seeds, n=st.integers(1, 300), volatility=volatilities,
       start_price=st.sampled_from([1e-300, 0.5, 30000.0, 1e250]),
       start_hour=st.integers(-10**6, 10**6), drop=st.sampled_from([0.0, 0.1]))
def test_to_csv_round_trips_through_parse_candles(seed, n, volatility, start_price,
                                                  start_hour, drop):
    series = generate_synthetic_series(seed=seed, n=n, volatility=volatility,
                                       start_price=start_price, start_ts=start_hour * HOUR)
    keep = np.random.default_rng(seed).random(n) >= drop
    keep[0] = True
    cols = [getattr(series, c)[keep] for c in ("timestamps", "open", "high", "low",
                                                "close", "volume")]
    series = CandleSeries(*cols, symbol="RT")
    buf = io.StringIO()
    series.to_csv(buf)
    got = parse_candles(io.StringIO(buf.getvalue()), symbol="RT")
    for name in ("timestamps", "open", "high", "low", "close", "volume"):
        want, col = getattr(series, name), getattr(got, name)
        assert col.dtype == want.dtype and col.tobytes() == want.tobytes(), name
    assert got.gaps == series.gaps


@PROPERTY
@given(seed=seeds, n=st.integers(1, 300), with_estimates=st.booleans(),
       missing=st.sampled_from([0.0, 0.3]))
def test_write_predictions_csv_round_trips_through_load_predictions(seed, n, with_estimates,
                                                                    missing):
    series = generate_synthetic_series(seed=seed, n=n)
    rng = np.random.default_rng(seed)
    ts = series.timestamps
    preds = Predictions(ts, rng.uniform(0.01, 0.99, n))
    extremes = np.array([AB_FLOOR, 1 / 3, 1e300, 1.7976931348623157e308])
    a, b = np.where(rng.random((2, n)) < 0.1, rng.choice(extremes, (2, n)),
                    rng.uniform(AB_FLOOR, 0.5, (2, n)))
    ests = None
    if with_estimates:
        kept = rng.random(n) >= missing
        kept[int(rng.integers(n))] = True  # an all-warm-up file has no rows to load
        ests = Scenarios(ts[kept], a[kept], b[kept])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "predictions.csv")
        write_predictions_csv(preds, ests, path)
        got_preds, got_ests = load_predictions(path, series)
    want_ts = ts if ests is None else ts[kept]
    assert np.array_equal(got_preds.timestamps, want_ts)
    assert np.array_equal(got_preds.p_up, preds.p_up[np.isin(ts, want_ts)])
    if ests is None:
        assert got_ests is None
    else:
        for name in ("timestamps", "a", "b"):
            assert np.array_equal(getattr(got_ests, name), getattr(ests, name))


@PROPERTY
@given(data=st.data(), seed=seeds, n=st.integers(12, 300),
       volatility=st.sampled_from([0.0, 0.01, 0.08]))
def test_lattice_keeps_grid_exposure_cap_and_ruin_cut(data, seed, n, volatility):
    series = generate_synthetic_series(seed=seed, n=n, volatility=volatility)
    rng = np.random.default_rng(seed)
    ts = series.timestamps
    preds = Predictions(ts, rng.uniform(0.01, 0.99, n))
    drop = data.draw(st.sampled_from([0.0, 0.3, 0.9]))
    kept = rng.random(n) >= drop
    ests = Scenarios(ts[kept], *rng.uniform(0.001, 0.1, (2, int(kept.sum()))))
    horizon = data.draw(st.integers(1, 8))
    initial = data.draw(st.sampled_from([1.0, 250.0]))
    cfg = BacktestConfig(horizon=horizon,
                         stride=data.draw(st.none() | st.integers(1, horizon + 2)),
                         initial_bankroll=initial,
                         ruin_floor=data.draw(st.sampled_from([0.0, 0.01, 0.5, 0.95])))
    cap = data.draw(st.sampled_from([5.0, 2.0, 0.5]))
    modifier = data.draw(st.sampled_from([1.0, 3.0]))
    policies = [SizingPolicy(kind, max_leverage=cap, modifier=modifier)
                for kind in ("none", "gaussian", "kelly")]
    try:
        results = compare_strategies(series, preds, ests, policies, cfg)
    except ValueError as exc:
        assert "no usable decision" in str(exc)
        return

    grid = max((r.trades for r in results), key=len)
    for r in results:
        trades, curve = r.trades, r.curve
        m = len(trades)
        assert m == len(grid) or curve.ruin
        assert [(t.entry_ts, t.exit_ts) for t in trades] == [
            (t.entry_ts, t.exit_ts) for t in grid[:m]]

        exposure = np.zeros(n)
        entry, _ = positions(ts, np.array([t.entry_ts for t in trades], np.int64))
        for i, t in zip(entry.tolist(), trades):
            exposure[i:i + horizon] += abs(t.fraction)
        assert exposure.max() <= cap * modifier * (1 + 1e-12)

        assert len(curve) == m + 1 and (curve.values >= 0).all()
        above = curve.values[1:] > cfg.ruin_floor * initial
        assert above[:-1].all()
        assert above[-1] != curve.ruin


# Barriers down to 1e-4 make bars that cross both barriers (AMBIGUOUS) common.
barrier_pcts = st.sampled_from([1e-4, 3e-4, 1e-3, 0.005, 0.02, 0.1])


@st.composite
def barrier_configs(draw, max_horizon=40):
    return BarrierConfig(up_pct=draw(barrier_pcts), down_pct=draw(barrier_pcts),
                         horizon=draw(st.integers(1, max_horizon)),
                         vertical_rule=draw(st.sampled_from(["SIGN", "ZERO"])),
                         ambiguous_to_lower=draw(st.booleans()))


def _onto_barriers(series: CandleSeries, cfg: BarrierConfig, seed: int,
                   rate: float) -> CandleSeries:
    """``series`` with about ``rate`` of the highs and of the lows widened to
    land exactly on the barrier of an entry up to ``horizon`` bars earlier."""
    rng = np.random.default_rng(seed)
    n = len(series)
    bar = np.arange(1, n)
    entry = np.maximum(bar - rng.integers(1, cfg.horizon + 1, n - 1), 0)
    high, low = series.high.copy(), series.low.copy()
    up, down = rng.random((2, n - 1)) < rate
    high[bar[up]] = np.maximum(high[bar[up]], series.close[entry[up]] * (1.0 + cfg.up_pct))
    low[bar[down]] = np.minimum(low[bar[down]],
                                series.close[entry[down]] * (1.0 - cfg.down_pct))
    return CandleSeries(series.timestamps, series.open, high, low, series.close,
                        series.volume)


@settings(PROPERTY, max_examples=150)
@given(data=st.data(), seed=seeds, n=st.integers(1, 120), volatility=volatilities,
       cfg=barrier_configs(), rate=st.sampled_from([0.0, 0.05, 0.35]))
def test_label_series_equals_per_entry_scan(data, seed, n, volatility, cfg, rate):
    series = _onto_barriers(generate_synthetic_series(seed=seed, n=n, volatility=volatility),
                            cfg, seed, rate)
    stride = data.draw(st.integers(1, cfg.horizon + 2))
    labeled = label_series(series, cfg, stride)
    entries = labeled.entry.tolist()
    assert entries == list(range(0, max(n - cfg.horizon, 0), stride))
    got = list(zip(labeled.label.tolist(), labeled.hit_bar.tolist(),
                   labeled.hit_kind.tolist()))
    assert got == [oracles.o_barrier_label(series, e, cfg) for e in entries]


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(((got == want) | (np.isnan(got) &
                                                              np.isnan(want))).all())


@PROPERTY
@given(data=st.data(), seed=seeds, n=st.integers(2, 300), volatility=volatilities)
def test_prefix_values_equal_full_series_values(data, seed, n, volatility):
    """Each causal stage computed on ``series.slice(0, k)`` equals the
    full-series value at the same timestamp: no stage reads a bar at or after
    the cut. The simulators read the outcome by design and are left out;
    barrier labels count as causal once their horizon has ended."""
    series = generate_synthetic_series(seed=seed, n=n, volatility=volatility)
    k = data.draw(st.integers(1, n - 1))
    prefix, ts = series.slice(0, k), series.timestamps

    for kind in sorted(ARITY):
        spec = IndicatorSpec(kind, data.draw(periods_for(kind)))
        assert _same(compute_indicator(prefix, spec).values,
                     compute_indicator(series, spec).values[:k]), spec.name

    grid = [IndicatorSpec(kind, data.draw(periods_for(kind))) for kind in
            data.draw(st.lists(st.sampled_from(sorted(ARITY)), min_size=1, max_size=3))]
    price_model = data.draw(st.booleans())
    horizon = data.draw(st.integers(1, 8))
    try:
        part = build_feature_matrix(prefix, grid, price_model, horizon)
    except ValueError:
        part = None  # no row of the prefix is past warm-up
    if part is not None:
        full = build_feature_matrix(series, grid, price_model, horizon)
        pos, found = positions(full.timestamps, part.timestamps)
        assert found.all() and np.array_equal(part.values, full.values[pos])
        train_end = int(part.timestamps[data.draw(st.integers(0, len(part) - 1))])
        if (part.timestamps <= train_end).sum() >= 2:
            stats = fit_normalizer(part, (int(ts[0]), train_end))
            full_stats = fit_normalizer(full, (int(ts[0]), train_end))
            assert np.array_equal(stats.mean, full_stats.mean)
            assert np.array_equal(stats.std, full_stats.std)
            assert np.array_equal(apply_normalizer(part, stats).values,
                                  apply_normalizer(full, full_stats).values[pos])

    h = data.draw(st.integers(1, 5))
    window = data.draw(st.integers(10 * h, 10 * h + 30))
    part_est, full_est = estimate_scenarios(prefix, h, window), estimate_scenarios(series, h,
                                                                                   window)
    m = len(part_est)
    assert int((full_est.timestamps < ts[k]).sum()) == m
    for name in ("timestamps", "a", "b"):
        assert np.array_equal(getattr(part_est, name), getattr(full_est, name)[:m]), name

    # Only the entry whose horizon ends just before a cut can read past it, so
    # the labels are checked at every cut; stride 1 labels that entry.
    cfg = data.draw(barrier_configs(max_horizon=12))
    full_lab = label_series(series, cfg)
    for cut in range(1, n):
        part_lab = label_series(series.slice(0, cut), cfg)
        m = len(part_lab)
        assert int((full_lab.entry + cfg.horizon < cut).sum()) == m
        for name in ("entry", "label", "hit_bar", "hit_kind"):
            assert getattr(part_lab, name).tolist() == getattr(full_lab, name)[:m].tolist(), \
                (cut, name)


def _adjacent_floats(center: float, count: int = 40) -> np.ndarray:
    """``count`` floats on each side of ``center``, each next to the last."""
    bits = np.float64(center).view(np.int64) + np.arange(-count, count + 1)
    return bits.view(np.float64)


@PROPERTY
@given(seed=seeds, a=st.floats(1e-3, 1.0), b=st.floats(1e-3, 1.0),
       policy=st.one_of(
           st.builds(SizingPolicy, st.just("none"),
                     max_leverage=st.sampled_from([0.5, 1.0, 5.0]),
                     modifier=st.sampled_from([0.0, 0.5, 1.0, 3.0])),
           st.builds(SizingPolicy, st.just("gaussian"),
                     expected=st.sampled_from([0.3, 0.5, 0.8]),
                     max_leverage=st.sampled_from([0.5, 1.0, 5.0]),
                     modifier=st.sampled_from([0.0, 0.5, 1.0, 3.0])),
           st.builds(SizingPolicy, st.just("kelly"),
                     kelly_fraction=st.sampled_from([0.1, 0.5, 1.0]),
                     max_leverage=st.sampled_from([0.5, 2.0, 5.0, 1e6]),
                     modifier=st.sampled_from([0.0, 0.5, 1.0, 3.0]))))
def test_fraction_is_non_decreasing_in_p(seed, a, b, policy):
    rng = np.random.default_rng(seed)
    centers = [0.3, 0.5, 0.8, 1.0 - 2.0 ** -53, 1e-15, 5e-17, float(policy.expected),
               1.0 - float(policy.expected)]
    p = np.concatenate([rng.uniform(0.0, 1.0, 300), rng.uniform(0.0, 1e-12, 20)] +
                       [_adjacent_floats(c) for c in centers])
    p = np.unique(p[(p > 0.0) & (p < 1.0)])
    fraction = np.array([decide(float(x), (a, b), policy).fraction for x in p])
    inversions = np.flatnonzero(np.diff(fraction) < 0)
    assert inversions.size == 0, [(p[i], p[i + 1], fraction[i], fraction[i + 1])
                                  for i in inversions[:3]]
