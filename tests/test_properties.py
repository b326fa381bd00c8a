"""Property tests: every loader either rejects a corrupted field with a
DataError naming its line or yields finite values, both loaders read or
reject the same field spelling and read a timestamp only as an exact int64
literal, what the CSV writers write their loaders read back unchanged, and
the backtest's stride lattice keeps one trade grid for every policy, the
aggregate exposure under the leverage cap and the equity at or above zero,
cut at the first ruin point. The barrier-label kernel equals the per-entry
scan, no causal stage reads a bar past a prefix cut, every sizing policy
is non-decreasing in p, and every consumer of the horizon return reads
``CandleSeries.forward_return``. Any value of up to three numeric options of
a command runs with clean files and stderr, or exits with one error line."""
import contextlib
import io
import json
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kellybt import cli
from kellybt.backtest import BacktestConfig, compare_strategies, decision_grid
from kellybt.candles import (HOUR, CandleSeries, DataError, generate_synthetic_series,
                            parse_candles, positions)
from kellybt.features import build_feature_matrix, make_labels
from kellybt.indicators import KINDS, IndicatorSpec, compute_indicator
from kellybt.labeling import HIT_VERTICAL, BarrierConfig, label_series
from kellybt.predictors import (AB_FLOOR, P_CLIP_HI, P_CLIP_LO, Predictions, Scenarios,
                                estimate_scenarios, load_predictions, write_predictions_csv)
from kellybt.sizing import SizingPolicy, decide

import oracles
from conftest import from_file, scenarios_on

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
    if KINDS[kind][0] == 2:
        slow = draw(st.integers(2, 40))
        return (draw(st.integers(1, slow - 1)), slow)
    return (draw(st.integers(1, 40)),)


def _csv_text(series: CandleSeries) -> str:
    """The text ``series.to_csv`` writes, through a temporary file: hypothesis
    rejects the function-scoped ``tmp_path``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "candles.csv")
        series.to_csv(path)
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()


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
    row = data.draw(st.integers(0, n - 1))
    text = _corrupt(_csv_text(series), row, data.draw(st.integers(0, 5)), bad)
    try:
        got = from_file(parse_candles, text)
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
        preds, ests = from_file(load_predictions, text, series)
    except DataError as exc:
        assert _names_line(exc, row + 2), str(exc)
    else:
        assert np.isfinite(preds.p_up).all()
        assert np.isfinite(ests.a).all() and np.isfinite(ests.b).all()


def _reads(load, text: str) -> bool:
    """Whether ``load`` gets past the reader: only a reader rejection (a
    malformed row) counts against it, not a value check."""
    try:
        from_file(load, text)
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


# One data row in each loader's format, with ``ts`` as its timestamp cell.
LOADER_ROWS = {
    "candles": (lambda text: from_file(parse_candles, text).timestamps,
                "timestamp,open,high,low,close,volume\n{},100,101,99,100,1\n"),
    "predictions": (lambda text: from_file(load_predictions, text)[0].timestamps,
                    "timestamp,p_up\n{},0.6\n"),
}


@pytest.mark.parametrize("loader", sorted(LOADER_ROWS))
def test_both_loaders_read_timestamps_beyond_2_53_exactly(loader):
    timestamps, row = LOADER_ROWS[loader]
    # An odd number of hours past 2**57 has no float64 twin: a float read would move it.
    beyond = (2**57 // (2 * HOUR) + 1) * 2 * HOUR + HOUR
    assert int(float(beyond)) != beyond
    for ts in (beyond, (2**63 - 1) // HOUR * HOUR, -((2**63) // HOUR) * HOUR):
        assert timestamps(row.format(ts)).tolist() == [ts]
    if loader == "candles":  # not hour-aligned: the error names the value read
        with pytest.raises(DataError, match="line 2: timestamp 9007199254740993 is not"):
            timestamps(row.format(9007199254740993))
    else:
        assert timestamps(row.format(9007199254740993)).tolist() == [9007199254740993]


@pytest.mark.parametrize("loader", sorted(LOADER_ROWS))
@pytest.mark.parametrize("ts", ["3600.0", "1.5778368e9", "1e3", "0x10", "9223372036854775808",
                                "-9223372036854775809", "3600\u00a0", "\U0010fffd",
                                "1\U000966e5"])
def test_both_loaders_reject_a_timestamp_that_is_not_an_int64_literal(loader, ts):
    timestamps, row = LOADER_ROWS[loader]
    with pytest.raises(DataError, match="^malformed row at line 2: "):
        timestamps(row.format(ts))


# Candle timestamps must be hour-aligned; the first hour keeps 300 more in int64.
candle_hours = st.integers(-((2**63) // HOUR), (2**63 - 1) // HOUR - 300)
# Subnormal, tiny and signed-zero values, which a lossy text round trip would move.
TINY = np.array([-0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308])


@PROPERTY
@given(seed=seeds, n=st.integers(1, 300), volatility=volatilities,
       start_price=st.sampled_from([2.5e-320, 1e-300, 0.5, 30000.0, 1e250]),
       start_hour=candle_hours, drop=st.sampled_from([0.0, 0.1]))
def test_to_csv_round_trips_through_parse_candles(seed, n, volatility, start_price,
                                                  start_hour, drop):
    series = generate_synthetic_series(seed=seed, n=n, volatility=volatility,
                                       start_price=start_price, start_ts=start_hour * HOUR)
    rng = np.random.default_rng(seed)
    keep = rng.random(n) >= drop
    keep[0] = True
    cols = [getattr(series, c)[keep] for c in ("timestamps", "open", "high", "low",
                                                "close", "volume")]
    cols[-1] = np.where(rng.random(cols[-1].size) < 0.2, rng.choice(TINY, cols[-1].size),
                        cols[-1])
    series = CandleSeries(*cols, symbol="RT")
    got = from_file(parse_candles, _csv_text(series), symbol="RT")
    for name in ("timestamps", "open", "high", "low", "close", "volume"):
        want, col = getattr(series, name), getattr(got, name)
        assert col.dtype == want.dtype and col.tobytes() == want.tobytes(), name
    assert got.gaps == series.gaps


@PROPERTY
@given(seed=seeds, n=st.integers(1, 300), missing=st.sampled_from([0.0, 0.3]),
       start=st.integers(-(2**63), 2**63 - 2**21))
def test_write_predictions_csv_round_trips_through_load_predictions(seed, n, missing, start):
    rng = np.random.default_rng(seed)
    # Strictly increasing int64 timestamps, steps of 1 included, from anywhere in the range.
    ts = start + np.cumsum(rng.integers(1, 4096, n)).astype(np.int64)
    p_up = np.where(rng.random(n) < 0.1, rng.choice(TINY[2:], n), rng.uniform(0.01, 0.99, n))
    preds = Predictions(ts, p_up)
    extremes = np.array([AB_FLOOR, 1 / 3, 1e300, 1.7976931348623157e308, *TINY[2:]])
    a, b = np.where(rng.random((2, n)) < 0.1, rng.choice(extremes, (2, n)),
                    rng.uniform(AB_FLOOR, 0.5, (2, n)))
    kept = rng.random(n) >= missing
    kept[int(rng.integers(n))] = True  # an all-warm-up file has no rows to load
    ests = Scenarios(ts[kept], a[kept], b[kept])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "predictions.csv")
        write_predictions_csv(preds, ests, path)
        got_preds, got_ests = load_predictions(path)
    # The loader clips p_up and floors a and b, so a subnormal comes back clipped.
    assert np.array_equal(got_preds.timestamps, ts[kept])
    assert np.array_equal(got_preds.p_up, np.clip(p_up[kept], P_CLIP_LO, P_CLIP_HI))
    assert np.array_equal(got_ests.timestamps, ests.timestamps)
    for name in ("a", "b"):
        assert np.array_equal(getattr(got_ests, name), np.maximum(getattr(ests, name), AB_FLOOR))


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
        results = compare_strategies(decision_grid(series, preds.timestamps, ests, cfg), preds,
                                     policies)
    except ValueError as exc:
        assert "no usable decision" in str(exc)
        return

    grid = oracles.trade_records(max((r.trades for r in results), key=len))
    for r in results:
        trades, curve = oracles.trade_records(r.trades), r.curve
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

    for kind in sorted(KINDS):
        spec = IndicatorSpec(kind, data.draw(periods_for(kind)))
        assert _same(compute_indicator(prefix, spec),
                     compute_indicator(series, spec)[:k]), spec.name

    grid = [IndicatorSpec(kind, data.draw(periods_for(kind))) for kind in
            data.draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=3))]
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
            train = (int(ts[0]), train_end)
            part = build_feature_matrix(prefix, grid, price_model, horizon, train)
            full = build_feature_matrix(series, grid, price_model, horizon, train)
            assert np.array_equal(part.stats.mean, full.stats.mean)
            assert np.array_equal(part.stats.std, full.stats.std)
            assert np.array_equal(part.values, full.values[pos])

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


@st.composite
def close_runs(draw):
    """A candle series of random positive closes with runs of equal ones
    (zero returns) and timestamp gaps, and a horizon that leaves feature rows."""
    horizon = draw(st.integers(1, 4))
    runs = draw(st.lists(st.tuples(st.floats(1.0, 1000.0), st.integers(1, 4)),
                         min_size=1, max_size=80))
    close = np.repeat([c for c, _ in runs], [k for _, k in runs])
    n = draw(st.integers(6 * horizon + 2, 6 * horizon + 80))
    close = np.resize(close, n)
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 7]), min_size=n - 1, max_size=n - 1))
    ts = 1_577_836_800 + HOUR * np.concatenate(([0], np.cumsum(steps, dtype=np.int64)))
    open_ = np.concatenate((close[:1], close[:-1]))
    series = CandleSeries(ts, open_, np.maximum(open_, close), np.minimum(open_, close),
                          close, np.full(n, 10.0))
    return series, horizon


@PROPERTY
@given(case=close_runs())
def test_every_horizon_return_consumer_reads_forward_return(case):
    """Labels, price-model features, the decision grid's realized return and
    the barrier SIGN rule all equal ``CandleSeries.forward_return``; a zero
    return counts as down."""
    series, h = case
    n = len(series)
    fwd = series.forward_return(h)
    assert fwd.size == n - h
    sign = np.where(fwd > 0, 1, -1)

    labels = make_labels(series, horizon=h)
    assert np.array_equal(labels.price_change, fwd)
    assert np.array_equal(labels.direction, sign)

    matrix = build_feature_matrix(series, [IndicatorSpec("ROC", (1,))], price_model=True,
                                  horizon=h)
    t, found = positions(series.timestamps, matrix.timestamps)
    assert found.all() and t.size == n - 6 * h  # rows [5h, n - h) are fully defined
    for k in range(1, 6):
        col = matrix.values[:, matrix.column_names.index(f"pc_{h}h_{k}")]
        assert np.array_equal(col, fwd[t - h * k])
    direction = matrix.values[:, matrix.column_names.index("market_direction")]
    assert np.array_equal(direction, sign[t])

    preds = Predictions(series.timestamps, np.full(n, 0.6))
    grid = decision_grid(series, preds.timestamps, scenarios_on(preds), BacktestConfig(h, 1))
    entry, _ = positions(series.timestamps, grid.entry_ts)
    assert np.array_equal(entry, np.arange(n - h))
    assert np.array_equal(grid.realized, fwd)

    # Barriers no close in [1, 1000] can reach: every entry ends at the vertical.
    out_of_reach = BarrierConfig(up_pct=1e6, down_pct=1 - 1e-6, horizon=h)
    barrier = label_series(series, out_of_reach)
    assert set(barrier.hit_kind) == {HIT_VERTICAL}
    assert np.array_equal(barrier.label, sign[barrier.entry])


# --- settings fuzz: every numeric option of a command ---------------------------

# Each command with the arguments that fix its input and size: a synthetic
# series of 60 or 300 bars, or a 400-bar candle file and the predictions of
# ``simulate --input`` on it.
_FUZZ_COMMANDS = ["simulate", "compare", "label", "features", "backtest", "report"]
_FUZZ_EXIT_ERRORS = {3, 4, 5}  # missing input, config, data: one JSON line each
_NON_FINITE_CELL = re.compile(r"(^|,)[-+]?(nan|inf)(,|$)", re.IGNORECASE | re.MULTILINE)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    candles = str(base / "candles.csv")
    generate_synthetic_series(seed=7, n=400).to_csv(candles)
    assert cli.main(["simulate", "--input", candles, "--out", str(base / "sim")]) == 0
    return {"input": candles, "predictions": str(base / "sim" / "predictions.csv")}


def _numeric_options(command: str) -> dict[str, type]:
    """The options of ``command`` that parse to a number, but the bar count."""
    kinds = {key: cli._option_type(command, key) for key in cli.DEFAULTS[command]}
    return {key: kind for key, kind in kinds.items() if kind in (int, float) and key != "n"}


@st.composite
def fuzz_settings(draw):
    command = draw(st.sampled_from(_FUZZ_COMMANDS))
    options = _numeric_options(command)
    keys = draw(st.lists(st.sampled_from(sorted(options)), min_size=1, max_size=3,
                         unique=True))
    argv = []
    for key in keys:
        if options[key] is float:
            value = repr(draw(st.floats(5e-324, 1.7e308)))
        else:  # every integer setting is an int64; just past it is a config error
            value = str(draw(st.integers(-2**63, 2**63 - 1) |
                             st.integers(-2**63 - 3, -2**63 - 1) | st.integers(2**63, 2**63 + 2)))
        argv += ["--" + key.replace("_", "-"), value]
    return command, argv


@settings(PROPERTY, max_examples=200)
@given(case=fuzz_settings(), n=st.sampled_from(["60", "300"]))
@example(case=("label", ["--stride", str(2**63)]), n="60")
@example(case=("label", ["--horizon", str(-2**63 - 1)]), n="60")
def test_numeric_settings_run_clean_or_exit_with_one_error_line(fuzz_files, case, n):
    """Any value of any numeric option either runs with no warning, nothing
    on stderr and no nan or inf in a CSV cell, or exits 3, 4 or 5 with one
    JSON error line on stderr."""
    command, options = case
    if command in ("simulate", "compare"):
        argv = [command, "--n", n] + (["--seeds", "0"] if command == "compare" else [])
    else:
        argv = [command, "--input", fuzz_files["input"]]
        if command in ("backtest", "report"):
            argv += ["--predictions", fuzz_files["predictions"]]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + options + ["--out", out])
        if code == 0:
            assert err.getvalue() == ""
            for name in os.listdir(out):
                if name.endswith(".csv"):
                    with open(os.path.join(out, name), encoding="utf-8") as fh:
                        assert not _NON_FINITE_CELL.search(fh.read()), name
            return
    assert code in _FUZZ_EXIT_ERRORS, err.getvalue()
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
