"""Property tests: streaming equals batch, and every loader either rejects a
corrupted field with a DataError naming its line or yields finite values."""
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellybt.candles import DataError, generate_synthetic_series, parse_candles_text
from kellybt.indicators import ARITY, IndicatorSpec, compute_indicator, make_stream
from kellybt.predictors import load_predictions

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
