from datetime import datetime, timezone

import numpy as np
import pytest

from kellybt.candles import (DEFAULT_START_TS, HOUR, CandleSeries, DataError,
                             generate_synthetic_series, parse_candles, positions,
                             split_dataset)

from conftest import from_file, make_series_from_closes

HEADER = "timestamp,open,high,low,close,volume\n"


def test_parse_single_row():
    series = from_file(parse_candles, HEADER + "1502942400,4261.48,4280.56,4261.32,4261.45,48.5\n")
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
        from_file(parse_candles, text)


def test_parse_rejects_duplicate_timestamps():
    text = HEADER + "3600,100,101,99,100,1\n3600,100,101,99,100,1\n"
    with pytest.raises(DataError, match="duplicate"):
        from_file(parse_candles, text)


def test_parse_sorts_rows():
    text = HEADER + "7200,100,101,99,100,1\n3600,100,101,99,100,1\n"
    series = from_file(parse_candles, text)
    assert list(series.timestamps) == [3600, 7200]


def test_parse_reports_line_number_for_malformed_row():
    text = HEADER + "3600,100,101,99,100,1\n7200,abc,101,99,100,1\n"
    with pytest.raises(DataError, match="line 3"):
        from_file(parse_candles, text)


def test_parse_skips_a_leading_byte_order_mark():
    # Spreadsheet exports often start a UTF-8 file with U+FEFF.
    text = HEADER + "3600,100,101,99,100,1\n7200,100,102,98,101,2\n"
    plain, marked = (from_file(parse_candles, mark + text) for mark in ("", "\ufeff"))
    for name in ("timestamps", "open", "high", "low", "close", "volume"):
        got, want = getattr(marked, name), getattr(plain, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for bad, message in (("10800,abc,101,99,100,1\n", "malformed row at line 4"),
                         ("10800,100,101,99,100,-1\n", "line 4: negative volume")):
        with pytest.raises(DataError, match=message):
            from_file(parse_candles, "\ufeff" + text + bad)


def test_parse_missing_column():
    with pytest.raises(DataError, match="missing column"):
        from_file(parse_candles, "timestamp,open,high,low,close\n3600,1,1,1,1\n")


def test_parse_rejects_misaligned_timestamp():
    with pytest.raises(DataError, match="aligned"):
        from_file(parse_candles, HEADER + "3601,100,101,99,100,1\n")


def test_parse_rejects_negative_volume_and_price():
    with pytest.raises(DataError, match="volume"):
        from_file(parse_candles, HEADER + "3600,100,101,99,100,-1\n")
    with pytest.raises(DataError, match="price"):
        from_file(parse_candles, HEADER + "3600,-100,101,99,100,1\n")


def test_round_trip_exact(tmp_path):
    series = generate_synthetic_series(seed=9, n=250, drift=0.0003, volatility=0.02)
    series.to_csv(tmp_path / "candles.csv")
    again = parse_candles(tmp_path / "candles.csv", symbol=series.symbol)
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
    train, val, test = split_dataset(series, int(series.timestamps[3]),
                                     int(series.timestamps[6]))
    assert (len(train), len(val), len(test)) == (4, 3, 3)
    assert train.timestamps[-1] == series.timestamps[3]  # boundary goes earlier


def test_split_partition_property():
    series = generate_synthetic_series(seed=3, n=200)
    rng = np.random.default_rng(0)
    for _ in range(20):
        i, j = sorted(rng.choice(np.arange(1, 199), size=2, replace=False))
        if i == j:
            continue
        train, val, test = split_dataset(series, int(series.timestamps[i]),
                                         int(series.timestamps[j]))
        assert len(train) + len(val) + len(test) == len(series)
        all_ts = np.concatenate([train.timestamps, val.timestamps, test.timestamps])
        assert np.array_equal(all_ts, series.timestamps)


def test_split_boundary_at_start_is_degenerate():
    series = generate_synthetic_series(seed=4, n=10)
    with pytest.raises(ValueError, match="empty"):
        split_dataset(series, int(series.timestamps[0]), int(series.timestamps[5]))


def test_split_with_both_boundaries_in_one_timestamp_gap_is_degenerate():
    series = generate_synthetic_series(seed=4, n=10)
    ts = series.timestamps + np.where(np.arange(10) < 5, 0, 10 * HOUR)  # a gap after bar 4
    gapped = CandleSeries(ts, series.open, series.high, series.low, series.close,
                          series.volume)
    with pytest.raises(ValueError, match="empty validation set"):
        split_dataset(gapped, int(ts[4]) + HOUR, int(ts[4]) + 2 * HOUR)


def test_split_spec_rejects_boundaries_out_of_order():
    series = generate_synthetic_series(seed=4, n=10)
    with pytest.raises(ValueError, match="^train_end 7200 must precede validation_end 7200$"):
        split_dataset(series, 7200, 7200)


def test_split_boundary_outside_range():
    series = generate_synthetic_series(seed=4, n=10)
    with pytest.raises(ValueError):
        split_dataset(series, int(series.timestamps[-1]) + HOUR,
                      int(series.timestamps[-1]) + 2 * HOUR)


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
    train_end = _epoch(2019, 8, 17)
    train, val, test = split_dataset(series, train_end, _epoch(2020, 1, 31))
    assert len(train) == (train_end - start) // HOUR + 1
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


@pytest.mark.parametrize("start_ts", [DEFAULT_START_TS + 1800, DEFAULT_START_TS - 1, 1])
def test_synthetic_rejects_start_off_the_hour_as_a_setting(start_ts):
    # It was taken, and the series then failed its own timestamp check as
    # bad data ("timestamp ... is not aligned"), naming no setting.
    with pytest.raises(ValueError, match=f"^start_ts must be aligned to the 3600s interval, "
                                         f"got {start_ts}$"):
        generate_synthetic_series(seed=0, n=5, start_ts=start_ts)
    assert generate_synthetic_series(seed=0, n=5, start_ts=HOUR).timestamps[0] == HOUR


@pytest.mark.parametrize("start_ts", [9_223_372_036_854_774_000, HOUR * 2**60,
                                      -9_223_372_036_854_777_600])
def test_synthetic_rejects_a_start_whose_bars_leave_int64(start_ts):
    # The timestamps wrapped past 2**63 - 1 ("duplicate or non-monotonic
    # timestamp"), or a start past it raised a raw OverflowError.
    with pytest.raises(ValueError, match=f"^start_ts must keep all 10 bars in the int64 "
                                         f"range, got {start_ts}$"):
        generate_synthetic_series(seed=0, n=10, start_ts=start_ts)
    first, last = -9_223_372_036_854_774_000, 9_223_372_036_854_774_000 - 9 * HOUR
    assert generate_synthetic_series(seed=0, n=10, start_ts=first).timestamps[0] == first
    assert generate_synthetic_series(seed=0, n=10, start_ts=last).timestamps[-1] == last + 9 * HOUR


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
        from_file(parse_candles, HEADER + "3600,100,101,99,100,1\n" + f"7200,{row}\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e30", "3600.5", "3600.9"])
def test_parse_rejects_non_integer_timestamp(bad):
    with pytest.raises(DataError, match="line 2"):
        from_file(parse_candles, HEADER + f"{bad},100,101,99,100,1\n")


def test_series_rejects_non_finite_values():
    with pytest.raises(DataError, match="non-finite"):
        CandleSeries([3600, 7200], [1, 1], [1, 1], [1, 1], [1, np.nan], [1, 1])
    with pytest.raises(DataError, match="non-finite"):
        CandleSeries([3600], [1], [np.inf], [1], [1], [1])


def test_series_rejects_no_rows_and_a_slice_outside_it():
    with pytest.raises(DataError, match="empty candle series"):
        CandleSeries([], [], [], [], [], [])
    series = generate_synthetic_series(seed=4, n=10)
    for start, stop in ((3, 3), (-1, 4), (5, 11)):
        with pytest.raises(ValueError, match="bad slice"):
            series.slice(start, stop)


def test_parse_error_names_line_of_unsorted_row():
    text = HEADER + "10800,100,101,99,100,1\n3600,100,101,99,100,-1\n"
    with pytest.raises(DataError, match="line 3: negative volume"):
        from_file(parse_candles, text)


def test_positions_finds_each_timestamp_or_its_insertion_point():
    reference = np.array([3600, 7200, 14400], np.int64)
    pos, found = positions(reference, np.array([0, 7200, 10800, 14400, 18000], np.int64))
    assert found.tolist() == [False, True, False, True, False]
    assert pos.tolist() == [0, 1, 2, 2, 3]
    pos, found = positions(reference[:0], np.array([3600], np.int64))
    assert pos.tolist() == [0] and found.tolist() == [False]


def test_forward_return_is_the_fractional_close_change_over_the_horizon():
    series = make_series_from_closes([100.0, 110.0, 110.0, 99.0])
    assert series.forward_return(1).tolist() == [0.1, 0.0, -0.1]
    assert series.forward_return(2).tolist() == [(110.0 - 100.0) / 100.0,
                                                 (99.0 - 110.0) / 110.0]
    assert series.forward_return(4).size == series.forward_return(9).size == 0
    for horizon in (0, -1):
        with pytest.raises(ValueError, match=f"^horizon must be >= 1, got {horizon}$"):
            series.forward_return(horizon)


# --- what the C reader accepts: each input float() and the csv module read
# --- differently is pinned here; everything else behaves as before.


@pytest.mark.parametrize("blank", ["   ", "\t", "", " \r"])
def test_parse_skips_whitespace_only_lines_and_still_counts_them(blank):
    good = HEADER + "3600,100,101,99,100,1\n" + blank + "\n7200,100,101,99,100,1\n"
    assert from_file(parse_candles, good).timestamps.tolist() == [3600, 7200]
    bad = HEADER + "3600,100,101,99,100,1\n" + blank + "\n7200,100,x,99,100,1\n"
    with pytest.raises(DataError, match="line 4"):
        from_file(parse_candles, bad)
    invalid = HEADER + blank + "\n10800,100,101,99,100,1\n" + blank + "\n7200,100,101,99,100,-1\n"
    with pytest.raises(DataError, match="line 5: negative volume"):
        from_file(parse_candles, invalid)


@pytest.mark.parametrize("field", ["1_000", "１00", "١٠٠"])
def test_parse_rejects_digits_only_float_accepts_by_line(field):
    # float() reads digit separators and non-ASCII digits; the C reader does not.
    with pytest.raises(DataError, match=f"malformed row at line 3: .*{field}"):
        from_file(parse_candles,
                  HEADER + "3600,100,101,99,100,1\n" + f"7200,{field},101,99,100,1\n")


@pytest.mark.parametrize("line", ['""', '" "'])
def test_parse_rejects_quoted_blank_line_by_line(line):
    # The csv module read these as one blank cell and skipped the row.
    with pytest.raises(DataError, match="malformed row at line 3"):
        from_file(parse_candles,
                  HEADER + "3600,100,101,99,100,1\n" + line + "\n7200,100,101,99,100,1\n")


@pytest.mark.parametrize("row", ["7200,100,101", "7200"])
def test_parse_rejects_row_with_too_few_columns_by_line(row):
    with pytest.raises(DataError, match="malformed row at line 4: "):
        from_file(parse_candles, HEADER + "3600,100,101,99,100,1\n\n" + row + "\n")


def test_parse_reads_lone_carriage_returns_as_line_ends():
    # A file is read with newline="": a lone "\r" ends a line, as "\n" does,
    # and counts as one in an error's line number.
    text = HEADER + "3600,100,101,99,100,1\r7200,100,101,99,100,1\r"
    assert from_file(parse_candles, text).timestamps.tolist() == [3600, 7200]
    text = HEADER + "3600,100,101,99,100,1\n\n7200,100,101,99,100,1\r10800,1,1,1,1,1\n"
    assert from_file(parse_candles, text).timestamps.tolist() == [3600, 7200, 10800]
    text = HEADER + "3600,100,101,99,100,1\n\n7200,100,101,99,100,1\r10800,1,x,1,1,1\n"
    with pytest.raises(DataError, match="^malformed row at line 5: "):
        from_file(parse_candles, text)


def test_parse_reads_a_header_ended_by_a_lone_carriage_return():
    text = HEADER.replace("\n", "\r") + "3600,100,101,99,100,1\r"
    assert from_file(parse_candles, text).timestamps.tolist() == [3600]


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
    series = from_file(parse_candles, HEADER + "3600,100,101,99,100,1\n" + row + "\n")
    assert series.timestamps.tolist() == [3600, 7200]
    assert series.open.tolist() == [100.0, 100.0] and series.low.tolist() == [99.0, 99.0]


def test_parse_reads_crlf_line_ends():
    text = (HEADER + "3600,100,101,99,100,1\n7200,100,101,99,100,1\n").replace("\n", "\r\n")
    assert from_file(parse_candles, text).timestamps.tolist() == [3600, 7200]


@pytest.mark.parametrize("row, message", [
    (b"7200,1,1,1,1\xff,1\n", "could not convert string"),
    (b"72\xff00,1,1,1,1,1\n", "is not an integer literal"),
], ids=["price", "timestamp"])
def test_parse_rejects_bytes_that_are_not_utf8_by_line(tmp_path, row, message):
    # A UnicodeDecodeError escaped the reader, and the CLI named it a config error.
    path = tmp_path / "candles.csv"
    path.write_bytes(HEADER.encode() + b"3600,1,1,1,1,1\n" + row)
    with pytest.raises(DataError, match=f"^malformed row at line 3: .*{message}"):
        parse_candles(str(path))


_PAST_CSV_LIMIT = "9" * 131_073  # one character past the csv module's field limit


@pytest.mark.parametrize("text, message", [
    (HEADER.replace("volume", "volume" + _PAST_CSV_LIMIT), "malformed header: "),
    (HEADER + "3600,100,101,99,100,1\n7200,\xa0" + _PAST_CSV_LIMIT + ",101,99,100,1\n",
     "malformed row at line 3: "),
], ids=["header", "non-ascii-row"])
def test_parse_rejects_a_field_past_the_csv_limit(text, message):
    # The csv module reads the header and screens a non-ASCII data line.
    with pytest.raises(DataError, match=f"^{message}field larger than field limit"):
        from_file(parse_candles, text)


@pytest.mark.parametrize("value", ["1e400", "Infinity", "-1e400"])
def test_parse_rejects_overflowing_or_infinite_spelling_by_line(value):
    with pytest.raises(DataError, match="line 3: non-finite"):
        from_file(parse_candles,
                  HEADER + "3600,100,101,99,100,1\n" + f"7200,100,{value},99,100,1\n")
