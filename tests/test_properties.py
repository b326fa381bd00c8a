"""Property tests: streaming equals batch, every loader either rejects a
corrupted field with a DataError naming its line or yields finite values,
and what the CSV writers write their loaders read back unchanged."""
import io
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellybt.candles import (HOUR, CandleSeries, DataError, generate_synthetic_series,
                            parse_candles, parse_candles_text)
from kellybt.indicators import ARITY, IndicatorSpec, compute_indicator, make_stream
from kellybt.predictors import (AB_FLOOR, DirectionPrediction, ScenarioEstimate,
                                load_predictions, write_predictions_csv)

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


@pytest.mark.parametrize("kind", sorted(ARITY))
@PROPERTY
@given(data=st.data(), seed=seeds, volatility=volatilities)
def test_stream_equals_batch_exactly(kind, data, seed, volatility):
    spec = IndicatorSpec(kind, data.draw(periods_for(kind)))
    n = data.draw(st.integers(1, 3 * max(spec.periods) + 20))
    series = generate_synthetic_series(seed=seed, n=n, volatility=volatility)
    batch = compute_indicator(series, spec).values
    stream = make_stream(spec)
    got = np.array([stream.update(c) for c in series], dtype=np.float64)
    same = (got == batch) | (np.isnan(got) & np.isnan(batch))
    assert same.all(), f"first mismatch at {np.flatnonzero(~same)[:5]}"


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
        assert np.isfinite([p.p_up for p in preds]).all()
        assert np.isfinite([(e.a, e.b) for e in ests]).all()


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
    ts = series.timestamps.tolist()
    preds = list(map(DirectionPrediction, ts, rng.uniform(0.01, 0.99, n).tolist()))
    extremes = np.array([AB_FLOOR, 1 / 3, 1e300, 1.7976931348623157e308])
    a, b = np.where(rng.random((2, n)) < 0.1, rng.choice(extremes, (2, n)),
                    rng.uniform(AB_FLOOR, 0.5, (2, n)))
    ests = None
    if with_estimates:
        kept = rng.random(n) >= missing
        kept[int(rng.integers(n))] = True  # an all-warm-up file has no rows to load
        ests = [e for e, k in zip(map(ScenarioEstimate, ts, a.tolist(), b.tolist()), kept)
                if k]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "predictions.csv")
        write_predictions_csv(preds, ests, path)
        got_preds, got_ests = load_predictions(path, series)
    if ests is None:
        assert got_preds == preds and got_ests is None
    else:
        by_ts = {e.timestamp for e in ests}
        assert got_preds == [p for p in preds if p.timestamp in by_ts]
        assert got_ests == ests
