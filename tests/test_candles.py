import io
from datetime import datetime, timezone

import numpy as np
import pytest

from kellybt.candles import (HOUR, CandleSeries, DataError, SplitSpec,
                             generate_synthetic_series, parse_candles,
                             parse_candles_text, positions, split_dataset)

HEADER = "timestamp,open,high,low,close,volume\n"


def test_parse_single_row():
    series = parse_candles_text(HEADER + "1502942400,4261.48,4280.56,4261.32,4261.45,48.5\n")
    assert len(series) == 1
    assert series.timestamps[0] == 1502942400
    assert series.open[0] == 4261.48
    assert series.high[0] == 4280.56
    assert series.low[0] == 4261.32
    assert series.close[0] == 4261.45
    assert series.volume[0] == 48.5


def test_parse_rejects_high_below_low():
    text = HEADER + "3600,100,99,101,100,1\n"
    with pytest.raises(DataError, match="3600"):
        parse_candles_text(text)


def test_parse_rejects_duplicate_timestamps():
    text = HEADER + "3600,100,101,99,100,1\n3600,100,101,99,100,1\n"
    with pytest.raises(DataError, match="duplicate"):
        parse_candles_text(text)


def test_parse_sorts_rows():
    text = HEADER + "7200,100,101,99,100,1\n3600,100,101,99,100,1\n"
    series = parse_candles_text(text)
    assert list(series.timestamps) == [3600, 7200]


def test_parse_reports_line_number_for_malformed_row():
    text = HEADER + "3600,100,101,99,100,1\n7200,abc,101,99,100,1\n"
    with pytest.raises(DataError, match="line 3"):
        parse_candles_text(text)


def test_parse_missing_column():
    with pytest.raises(DataError, match="missing column"):
        parse_candles_text("timestamp,open,high,low,close\n3600,1,1,1,1\n")


def test_parse_column_mapping():
    text = "time,o,h,l,c,vol\n3600,100,101,99,100,1\n"
    series = parse_candles(io.StringIO(text), mapping={
        "timestamp": "time", "open": "o", "high": "h", "low": "l",
        "close": "c", "volume": "vol"})
    assert len(series) == 1 and series.close[0] == 100


def test_parse_rejects_misaligned_timestamp():
    with pytest.raises(DataError, match="aligned"):
        parse_candles_text(HEADER + "3601,100,101,99,100,1\n")


def test_parse_rejects_negative_volume_and_price():
    with pytest.raises(DataError, match="volume"):
        parse_candles_text(HEADER + "3600,100,101,99,100,-1\n")
    with pytest.raises(DataError, match="price"):
        parse_candles_text(HEADER + "3600,-100,101,99,100,1\n")


def test_round_trip_exact():
    series = generate_synthetic_series(seed=9, n=250, drift=0.0003, volatility=0.02)
    buf = io.StringIO()
    series.to_csv(buf)
    again = parse_candles(io.StringIO(buf.getvalue()), symbol=series.symbol)
    for field in ("timestamps", "open", "high", "low", "close", "volume"):
        assert np.array_equal(getattr(series, field), getattr(again, field))


def test_gap_indexing():
    ts = [3600, 7200, 10800, 21600]  # 2-bar hole before the last candle
    series = CandleSeries(ts, [1] * 4, [1] * 4, [1] * 4, [1] * 4, [0] * 4)
    assert series.gaps == ((2, 2),)


def test_series_arrays_are_read_only():
    series = generate_synthetic_series(seed=1, n=10)
    with pytest.raises(ValueError):
        series.close[0] = 1.0


def test_split_counts_small():
    series = generate_synthetic_series(seed=2, n=10)
    spec = SplitSpec(int(series.timestamps[3]), int(series.timestamps[6]))
    train, val, test = split_dataset(series, spec)
    assert (len(train), len(val), len(test)) == (4, 3, 3)
    assert train.timestamps[-1] == series.timestamps[3]  # boundary goes earlier


def test_split_partition_property():
    series = generate_synthetic_series(seed=3, n=200)
    rng = np.random.default_rng(0)
    for _ in range(20):
        i, j = sorted(rng.choice(np.arange(1, 199), size=2, replace=False))
        if i == j:
            continue
        spec = SplitSpec(int(series.timestamps[i]), int(series.timestamps[j]))
        train, val, test = split_dataset(series, spec)
        assert len(train) + len(val) + len(test) == len(series)
        all_ts = np.concatenate([train.timestamps, val.timestamps, test.timestamps])
        assert np.array_equal(all_ts, series.timestamps)


def test_split_boundary_at_start_is_degenerate():
    series = generate_synthetic_series(seed=4, n=10)
    spec = SplitSpec(int(series.timestamps[0]), int(series.timestamps[5]))
    with pytest.raises(ValueError, match="empty"):
        split_dataset(series, spec)


def test_split_boundary_outside_range():
    series = generate_synthetic_series(seed=4, n=10)
    spec = SplitSpec(int(series.timestamps[-1]) + HOUR, int(series.timestamps[-1]) + 2 * HOUR)
    with pytest.raises(ValueError):
        split_dataset(series, spec)


def _epoch(y, m, d):
    return int(datetime(y, m, d, tzinfo=timezone.utc).timestamp())


def test_split_full_history_proportions():
    # Hourly span 2017-09-08 .. 2023-06-02 with the published boundaries
    # lands near 17k / 4k / 29k points.
    start = _epoch(2017, 9, 8)
    end = _epoch(2023, 6, 2)
    n = (end - start) // HOUR + 1
    series = generate_synthetic_series(seed=0, n=n, drift=0.0, volatility=0.0,
                                       start_price=4000.0, start_ts=start)
    spec = SplitSpec(_epoch(2019, 8, 17), _epoch(2020, 1, 31))
    train, val, test = split_dataset(series, spec)
    assert len(train) == (spec.train_end - start) // HOUR + 1
    assert 16500 <= len(train) <= 17500
    assert 3900 <= len(val) <= 4100
    assert 28500 <= len(test) <= 29500


def test_synthetic_determinism():
    a = generate_synthetic_series(seed=11, n=500, drift=0.001, volatility=0.02)
    b = generate_synthetic_series(seed=11, n=500, drift=0.001, volatility=0.02)
    for field in ("timestamps", "open", "high", "low", "close", "volume"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_synthetic_zero_volatility_is_flat():
    series = generate_synthetic_series(seed=5, n=50, drift=0.0, volatility=0.0,
                                       start_price=123.0)
    assert np.allclose(series.close, 123.0)
    assert np.allclose(series.high, 123.0)
    assert np.allclose(series.low, 123.0)


def test_synthetic_drift_moment():
    series = generate_synthetic_series(seed=6, n=10_000, drift=0.001, volatility=0.01)
    logret = np.diff(np.log(series.close))
    se = 0.01 / np.sqrt(logret.size)
    assert abs(logret.mean() - 0.001) <= 3 * se


def test_synthetic_candle_invariants_across_seeds():
    for seed in range(15):
        s = generate_synthetic_series(seed=seed, n=300, drift=0.0005, volatility=0.03)
        assert np.all(s.low <= np.minimum(s.open, s.close))
        assert np.all(s.high >= np.maximum(s.open, s.close))
        assert np.all(s.low > 0)
        assert np.all(s.volume >= 0)
        assert np.all(np.diff(s.timestamps) == HOUR)


def test_synthetic_validates_arguments():
    with pytest.raises(ValueError):
        generate_synthetic_series(seed=0, n=0)
    with pytest.raises(ValueError):
        generate_synthetic_series(seed=0, n=5, volatility=-0.1)
    with pytest.raises(ValueError):
        generate_synthetic_series(seed=0, n=5, start_price=0.0)


@pytest.mark.parametrize("field", ["drift", "volatility", "start_price"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_synthetic_rejects_non_finite_arguments(field, value):
    with pytest.raises(ValueError, match=field):
        generate_synthetic_series(seed=0, n=5, **{field: value})


@pytest.mark.parametrize("field", ["open", "high", "low", "close", "volume"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_field(field, bad):
    values = {"open": "100", "high": "101", "low": "99", "close": "100", "volume": "1"}
    values[field] = bad
    row = ",".join(values[k] for k in ("open", "high", "low", "close", "volume"))
    with pytest.raises(DataError, match="line 3"):
        parse_candles_text(HEADER + "3600,100,101,99,100,1\n" + f"7200,{row}\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e30"])
def test_parse_rejects_non_integer_timestamp(bad):
    with pytest.raises(DataError, match="line 2"):
        parse_candles_text(HEADER + f"{bad},100,101,99,100,1\n")


def test_series_rejects_non_finite_values():
    with pytest.raises(DataError, match="non-finite"):
        CandleSeries([3600, 7200], [1, 1], [1, 1], [1, 1], [1, np.nan], [1, 1])
    with pytest.raises(DataError, match="non-finite"):
        CandleSeries([3600], [1], [np.inf], [1], [1], [1])


def test_parse_error_names_line_of_unsorted_row():
    text = HEADER + "10800,100,101,99,100,1\n3600,100,101,99,100,-1\n"
    with pytest.raises(DataError, match="line 3: negative volume"):
        parse_candles_text(text)


def test_positions_finds_each_timestamp_or_its_insertion_point():
    reference = np.array([3600, 7200, 14400], np.int64)
    pos, found = positions(reference, np.array([0, 7200, 10800, 14400, 18000], np.int64))
    assert found.tolist() == [False, True, False, True, False]
    assert pos.tolist() == [0, 1, 2, 2, 3]
    pos, found = positions(reference[:0], np.array([3600], np.int64))
    assert pos.tolist() == [0] and found.tolist() == [False]


# --- what the C reader accepts: each input float() and the csv module read
# --- differently is pinned here; everything else behaves as before.


@pytest.mark.parametrize("blank", ["   ", "\t", "", " \r"])
def test_parse_skips_whitespace_only_lines_and_still_counts_them(blank):
    good = HEADER + "3600,100,101,99,100,1\n" + blank + "\n7200,100,101,99,100,1\n"
    assert parse_candles_text(good).timestamps.tolist() == [3600, 7200]
    bad = HEADER + "3600,100,101,99,100,1\n" + blank + "\n7200,100,x,99,100,1\n"
    with pytest.raises(DataError, match="line 4"):
        parse_candles_text(bad)
    invalid = HEADER + blank + "\n10800,100,101,99,100,1\n" + blank + "\n7200,100,101,99,100,-1\n"
    with pytest.raises(DataError, match="line 5: negative volume"):
        parse_candles_text(invalid)


@pytest.mark.parametrize("field", ["1_000", "１00", "١٠٠"])
def test_parse_rejects_digits_only_float_accepts_by_line(field):
    # float() reads digit separators and non-ASCII digits; the C reader does not.
    with pytest.raises(DataError, match=f"malformed row at line 3: .*{field}"):
        parse_candles_text(HEADER + "3600,100,101,99,100,1\n" + f"7200,{field},101,99,100,1\n")


@pytest.mark.parametrize("line", ['""', '" "'])
def test_parse_rejects_quoted_blank_line_by_line(line):
    # The csv module read these as one blank cell and skipped the row.
    with pytest.raises(DataError, match="malformed row at line 3"):
        parse_candles_text(HEADER + "3600,100,101,99,100,1\n" + line + "\n7200,100,101,99,100,1\n")


@pytest.mark.parametrize("row", ["7200,100,101", "7200"])
def test_parse_rejects_row_with_too_few_columns_by_line(row):
    with pytest.raises(DataError, match="malformed row at line 4: "):
        parse_candles_text(HEADER + "3600,100,101,99,100,1\n\n" + row + "\n")


def test_parse_rejects_lone_carriage_returns_in_a_stream_as_data_error():
    # A text stream that does not split on "\r" sees one line; the csv module
    # raised its own error here, which is not a DataError. numpy's message
    # names no row, so the line is the one the reader stopped on.
    text = HEADER + "3600,100,101,99,100,1\r7200,100,101,99,100,1\r"
    with pytest.raises(DataError, match=r"^malformed row at line 2: Found an unquoted "
                                        r"embedded newline"):
        parse_candles_text(text)
    text = HEADER + "3600,100,101,99,100,1\n\n7200,100,101,99,100,1\r10800,1,1,1,1,1\n"
    with pytest.raises(DataError, match=r"^malformed row at line 4: Found an unquoted "
                                        r"embedded newline"):
        parse_candles_text(text)


def test_parse_rejects_lone_carriage_returns_in_a_stream_header_as_data_error():
    # The csv module raised its own error on the header line too.
    with pytest.raises(DataError, match="malformed header"):
        parse_candles_text(HEADER.replace("\n", "\r") + "3600,100,101,99,100,1\r")


def test_parse_reads_lone_carriage_returns_from_a_file(tmp_path):
    path = tmp_path / "candles.csv"
    path.write_bytes(b"timestamp,open,high,low,close,volume\r3600,100,101,99,100,1\r\r"
                     b"7200,100,101,99,100,1\r")
    assert parse_candles(str(path)).timestamps.tolist() == [3600, 7200]


@pytest.mark.parametrize("row", [
    "7200 , 100 ,101, 99,100 ,1",          # spaces around a field
    '"7200","100",101,"99",100,1',         # quoted fields
    "7200,100,101,99,100,1,9,9",           # extra columns
    "7200,100,101,99,100,1,",              # a trailing comma
    "7200,100\xa0,101,99,100,1",           # non-ASCII space around a field
])
def test_parse_reads_field_spellings_as_before(row):
    series = parse_candles_text(HEADER + "3600,100,101,99,100,1\n" + row + "\n")
    assert series.timestamps.tolist() == [3600, 7200]
    assert series.open.tolist() == [100.0, 100.0] and series.low.tolist() == [99.0, 99.0]


def test_parse_reads_crlf_line_ends():
    text = (HEADER + "3600,100,101,99,100,1\n7200,100,101,99,100,1\n").replace("\n", "\r\n")
    assert parse_candles_text(text).timestamps.tolist() == [3600, 7200]


@pytest.mark.parametrize("value", ["1e400", "Infinity", "-1e400"])
def test_parse_rejects_overflowing_or_infinite_spelling_by_line(value):
    with pytest.raises(DataError, match="line 3: non-finite"):
        parse_candles_text(HEADER + "3600,100,101,99,100,1\n" + f"7200,100,{value},99,100,1\n")
