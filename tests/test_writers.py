"""The one CSV writer, ``artifacts.write_csv``, and every artifact writer built
on it: each writes the same bytes as the hand-written writer it replaced
(kept in oracles.py), and a table of numpy columns the bytes of the
standard-library reference ``oracles.format_rows``, whether it is formatted in
one piece or split into row ranges on a bounded pool of threads. The SVG
chart writes the same bytes as the per-point writer it replaced, whatever the
order of its curves."""
import contextlib
import dataclasses
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from kellybt import artifacts, cli, floattext
from kellybt.artifacts import write_csv
from kellybt.backtest import EquityCurve, Trades, write_equity_csv, write_trades_csv
from kellybt.candles import HOUR, CandleSeries, generate_synthetic_series
from kellybt.features import (FeatureMatrix, LabelSet, build_feature_matrix, default_grid,
                              make_labels, write_labels_csv, write_matrix_csv)
from kellybt.labeling import BarrierLabels, write_barrier_labels_csv
from kellybt.metrics import BacktestReport, classification_report
from kellybt.predictors import (Predictions, Scenarios, load_predictions,
                                write_predictions_csv)

import floattext_sweep
import oracles

# Inputs are drawn from a seed, so shrinking a failure finds nothing smaller.
EXACT = settings(derandomize=True, database=None, deadline=None, max_examples=4,
                 phases=[Phase.explicit, Phase.generate])

seeds = st.integers(0, 2**32 - 1)

# Empty, one row, and each side of 1,024 rows, and past 2,048.
ROW_COUNTS = [0, 1, 1023, 1024, 1025, 2049]

SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-300, 1e300,
           -1e300, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3]
POSITIVE = [5e-324, 1e-300, 1e300, 1.7976931348623157e308, 0.1, 1 / 3, 30000.0]


@contextlib.contextmanager
def _ranges(k):
    """``write_csv`` as with ``k`` usable CPUs and one cell per range: a
    numeric table of at least ``k`` cells is split into ``k`` row ranges,
    formatted on a pool of ``k - 1`` threads and by the joining thread."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(artifacts, "CSV_CELLS_PER_RANGE", 1)
        mp.setattr(artifacts, "_usable_cpus", lambda: k)
        yield


def _floats(rng, size, rate, pool=SPECIAL):
    """Normals scaled by 1e-300..1e300, with values from ``pool`` at ``rate``."""
    x = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 301, size)
    mask = rng.random(size) < rate
    x[mask] = rng.choice(pool, int(mask.sum()))
    return x


def _timestamps(rng, n):
    """``n`` sorted, distinct int64s; for n >= 2 the first is -2**63 and
    the last 2**63 - 1."""
    ts = np.unique(rng.integers(-2**63 + 1, 2**63 - 1, n))
    while ts.size < n:  # a value drawn twice
        ts = np.unique(np.concatenate((ts, rng.integers(-2**63 + 1, 2**63 - 1, n - ts.size))))
    if n >= 2:
        ts[0], ts[-1] = -2**63, 2**63 - 1
    return ts


def _matrix(rng, n, rate):
    k = int(rng.integers(1, 6))
    names = tuple(f"col_{j}" for j in range(k))
    return (FeatureMatrix(_timestamps(rng, n), names, _floats(rng, n * k, rate).reshape(n, k)),)


def _labels(rng, n, rate):
    return (LabelSet(_timestamps(rng, n), rng.choice(np.array([-1, 1], np.int8), n),
                     _floats(rng, n, rate), _floats(rng, n, rate), 5),)


def _barrier_labels(rng, n, rate):
    series = generate_synthetic_series(seed=int(rng.integers(1000)), n=n + 1)
    entries = rng.integers(0, n + 1, n).tolist()
    kinds = rng.choice(["UPPER", "LOWER", "VERTICAL", "AMBIGUOUS"], n).tolist()
    return series, BarrierLabels(entries, rng.integers(-1, 2, n), rng.integers(1, 40, n), kinds)


def _o_write_barrier_labels_csv(series, labeled, path):
    oracles.o_write_barrier_labels_csv(series, oracles.barrier_label_records(labeled), path)


def _trades(rng, n, rate):
    sides = rng.choice(["LONG", "SHORT", "FLAT"], n)
    floats = [_floats(rng, n, rate) for _ in range(5)]
    return (Trades(_timestamps(rng, n), _timestamps(rng, n), sides, *floats),)


def _o_write_trades_csv(trades, path):
    oracles.o_write_trades_csv(oracles.trade_records(trades), path)


def _equity(rng, n, rate):
    return (EquityCurve(_timestamps(rng, n), _floats(rng, n, rate)),)


def _predictions(rng, n, rate):
    # Both frames draw from twice as many timestamps, so some estimates are missing.
    def timestamps():
        return np.sort(rng.choice(2 * n + 2, n, replace=False))

    preds = Predictions(timestamps(), _floats(rng, n, rate))
    if rng.choice(["empty", "subset"]) == "empty":
        return preds, Scenarios([], [], [])
    return preds, Scenarios(timestamps(), _floats(rng, n, rate), _floats(rng, n, rate))


def _o_write_predictions_csv(preds, ests, path):
    oracles.o_write_predictions_csv(oracles.prediction_records(preds),
                                    oracles.scenario_records(ests), path)


def _reports(rng, n, rate):
    cum, drawdown, sharpe, romad, win_rate = (_floats(rng, n, rate).tolist() for _ in range(5))
    missing = rng.random((2, n)) < rate
    sharpe = [None if m else x for m, x in zip(missing[0].tolist(), sharpe)]
    romad = [None if m else x for m, x in zip(missing[1].tolist(), romad)]
    flags = [("RUIN", "SHARPE_NA", "ROMAD_NA")[:k] for k in rng.integers(0, 4, n).tolist()]
    return list(map(BacktestReport, cum, drawdown, sharpe, romad,
                    rng.integers(0, 999, n).tolist(), win_rate, flags))


def _table5(rng, n, rate):
    return ([(f"strategy_{i}", r) for i, r in enumerate(_reports(rng, n, rate))],)


def _comparison(rng, n, rate):
    return ([{"model": "gaussian", "seed": i % 7 - 3, "policy": "kelly",
              **dataclasses.asdict(r)} for i, r in enumerate(_reports(rng, n, rate))],)


# name -> (build(rng, n, rate) -> writer args before the path, writer, oracle)
CASES = {
    "features.write_matrix_csv": (_matrix, write_matrix_csv, oracles.o_write_matrix_csv),
    "features.write_labels_csv": (_labels, write_labels_csv, oracles.o_write_labels_csv),
    "labeling.write_barrier_labels_csv": (_barrier_labels, write_barrier_labels_csv,
                                          _o_write_barrier_labels_csv),
    "backtest.write_trades_csv": (_trades, write_trades_csv, _o_write_trades_csv),
    "backtest.write_equity_csv": (_equity, write_equity_csv, oracles.o_write_equity_csv),
    "predictors.write_predictions_csv": (_predictions, write_predictions_csv,
                                         _o_write_predictions_csv),
    "cli._write_table5": (_table5, cli._write_table5, oracles.o_write_table5),
    "cli._write_comparison": (_comparison, cli._write_comparison,
                              oracles.o_write_comparison),
}


def _want(header, columns) -> bytes:
    """The bytes ``write_csv`` must write: the header, then the rows of the
    reference formatter."""
    n = len(columns[0]) if columns else 0
    return (",".join(header) + "\n" + "".join(oracles.format_rows(columns, 0, n))).encode()


def _written(write, *args) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        write(*args, path)
        with open(path, "rb") as fh:
            return fh.read()


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("case", sorted(CASES))
@EXACT
@given(seed=seeds, rate=st.sampled_from([0.0, 0.05, 0.5, 1.0]))
def test_writer_bytes_equal_hand_written_writer(case, n, seed, rate):
    _check_writer(case, n, seed, rate)


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("case", sorted(CASES))
@EXACT
@given(seed=seeds, rate=st.sampled_from([0.0, 0.05, 0.5, 1.0]))
def test_writer_bytes_equal_hand_written_writer_in_row_ranges(case, n, seed, rate):
    with _ranges(3):
        _check_writer(case, n, seed, rate)


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("case", sorted(CASES))
@settings(EXACT, max_examples=2)
@given(seed=seeds, rate=st.sampled_from([0.0, 0.05, 0.5, 1.0]))
def test_writer_bytes_equal_hand_written_writer_in_numpy_ranges(case, n, seed, rate):
    with _ranges(2):  # one pool thread: the joining thread formats the queued range
        _check_writer(case, n, seed, rate)


def _check_writer(case, n, seed, rate):
    build, write, o_write = CASES[case]
    args = build(np.random.default_rng(seed), n, rate)
    assert _written(write, *args) == _written(o_write, *args)


@pytest.mark.parametrize("n", [n for n in ROW_COUNTS if n])  # a series is never empty
@EXACT
@given(seed=seeds, rate=st.sampled_from([0.0, 0.05, 0.5, 1.0]))
def test_to_csv_bytes_equal_hand_written_writer(n, seed, rate):
    _check_to_csv(n, seed, rate)


@pytest.mark.parametrize("n", [n for n in ROW_COUNTS if n])
@EXACT
@given(seed=seeds, rate=st.sampled_from([0.0, 0.05, 0.5, 1.0]))
def test_to_csv_bytes_equal_hand_written_writer_in_row_ranges(n, seed, rate):
    with _ranges(3):
        _check_to_csv(n, seed, rate)


def _check_to_csv(n, seed, rate):
    rng = np.random.default_rng(seed)
    price = _floats(rng, n, rate, POSITIVE)
    price = np.where(price > 0, price, -price) + (price == 0)
    volume = _floats(rng, n, rate, [0.0, -0.0, 1e-300, 1e300, 0.5])
    volume = np.where(volume < 0, -volume, volume)
    ts = (int(rng.integers(-10**6, 10**6)) + np.arange(n)) * HOUR
    series = CandleSeries(ts, price, price, price, price, volume)
    assert _written(series.to_csv) == _written(oracles.o_to_csv, series)


@pytest.mark.parametrize("p", [None, 0.6])
def test_kelly_surfaces_equal_hand_written_writer(tmp_path, p):
    argv = ["kelly-surface", "--out", str(tmp_path / "new")]
    assert cli.main(argv + ([] if p is None else ["--p", str(p)])) == 0
    for path in oracles.o_kelly_surface({"p": p}, str(tmp_path)):
        name = os.path.basename(path)
        with open(path, "rb") as want, open(tmp_path / "new" / name, "rb") as got:
            assert got.read() == want.read(), name


def test_report_csvs_equal_hand_written_writers(tmp_path):
    series = generate_synthetic_series(seed=4, n=900, volatility=0.01)
    labels = make_labels(series)
    rng = np.random.default_rng(4)
    # Two decimals, so many predictions share a threshold.
    p_up = np.round(rng.uniform(0.01, 0.99, len(labels)), 2)
    series.to_csv(str(tmp_path / "candles.csv"))
    # No a,b columns, as an external model may write: report estimates them.
    with open(tmp_path / "preds.csv", "w", newline="") as fh:
        fh.write("timestamp,p_up\n")
        fh.writelines(f"{t},{p!r}\n" for t, p in zip(labels.timestamps.tolist(), p_up.tolist()))
    out = tmp_path / "out"
    assert cli.main(["report", "--input", str(tmp_path / "candles.csv"), "--predictions",
                     str(tmp_path / "preds.csv"), "--out", str(out)]) == 0
    preds, _ = load_predictions(str(tmp_path / "preds.csv"))
    report = json.loads((out / "backtest_report.json").read_text())
    table = BacktestReport(*(report[k] for k in ("cumulative_return_pct", "max_drawdown_pct",
                                                 "sharpe", "romad", "trade_count",
                                                 "win_rate")), tuple(report["flags"]))
    wants = {
        "confusion.csv": lambda path: oracles.o_write_confusion(
            classification_report(preds, labels), path),
        "pr_curve.csv": lambda path: oracles.o_write_pr_curve(
            oracles.prediction_records(preds), labels, path),
        "report_table.csv": lambda path: oracles.o_write_table5([("external", table)], path),
    }
    for name, o_write in wants.items():
        assert (out / name).read_bytes() == _written(o_write), name


def test_write_csv_formats_cells(tmp_path):
    write_csv(tmp_path / "out.csv", ("ts", "note", "x"),
              [np.array([1, -2], np.int64), [None, "up"], np.array([0.1, -0.0])])
    assert (tmp_path / "out.csv").read_text() == "ts,note,x\n1,NA,0.1\n-2,up,-0.0\n"


def test_write_csv_without_columns_writes_the_header(tmp_path):
    write_csv(tmp_path / "empty.csv", ("a", "b"), [])
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


@pytest.mark.parametrize("columns", [[[1, 2], [3]], [[1, 2]], [[1], [2], [3]]])
def test_write_csv_rejects_columns_that_do_not_fit_the_header(tmp_path, columns):
    with pytest.raises(ValueError, match="columns of one length"):
        write_csv(tmp_path / "out.csv", ("a", "b"), columns)


def _column(rng, kind, n, rate):
    if kind == "float64":
        return _floats(rng, n, rate)
    if kind == "str":  # printable ASCII, 0 to 11 characters
        chars = rng.integers(32, 127, (n, 11), dtype=np.uint8)
        return np.array([row[:k].tobytes().decode()
                         for row, k in zip(chars, rng.integers(0, 12, n).tolist())], str)
    info = np.iinfo(kind)
    col = rng.integers(info.min, info.max, n, dtype=kind, endpoint=True)
    mask = rng.random(n) < rate
    col[mask] = rng.choice(np.array([info.min, info.max, 0, -1, 1], kind), int(mask.sum()))
    return col


# The column dtypes ``floattext.format_rows`` formats.
KINDS = ["float64", "int64", "int8", "str"]


# (rows, ranges): ranges of one length (1024, 2048), of two lengths (1500;
# 625, 1250, 1875), and of two or three rows.
@pytest.mark.parametrize("n, k", [(2048, 2), (3072, 3), (3000, 2), (2500, 4), (7, 3)])
@settings(derandomize=True, database=None, deadline=None, max_examples=3,
          phases=[Phase.explicit, Phase.generate])
@given(seed=seeds, rate=st.sampled_from([0.0, 0.05, 1.0]),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
def test_row_ranges_write_the_bytes_of_one_range(n, k, seed, rate, kinds):
    rng = np.random.default_rng(seed)
    columns = [_column(rng, kind, n, rate) for kind in kinds]
    header = tuple(f"c{j}" for j in range(len(columns)))
    want = _want(header, columns)
    with _ranges(1):
        assert _written(lambda path: write_csv(path, header, columns)) == want
    with _ranges(k):
        assert artifacts._row_ranges(columns, n) == [n * i // k for i in range(k + 1)]
        assert _written(lambda path: write_csv(path, header, columns)) == want


@pytest.fixture
def files(monkeypatch):
    """Every temporary file made during the test."""
    made, temporary_file = [], tempfile.TemporaryFile

    def recorded(*args, **kwargs):
        made.append(temporary_file(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
    return made


def _pool_threads():
    """The live threads of every row-range pool."""
    return [t for t in threading.enumerate() if t.name.startswith(artifacts.__name__)]


def _table(n=3000):
    rng = np.random.default_rng(5)
    return ("ts", "x"), [_timestamps(rng, n), _floats(rng, n, 0.05)]


def _raises(columns, start, stop):
    raise RuntimeError("kernel failed")
    yield b""  # a generator, as floattext.format_rows is


def _writes_then_raises(columns, start, stop):
    yield b"1,2\n"
    raise RuntimeError("kernel failed")


def _warns(columns, start, stop):  # divides by zero, which the range's errstate raises
    np.log(np.zeros(1))
    yield b""


@pytest.mark.parametrize("kernel", [_raises, _writes_then_raises, _warns],
                         ids=["raises", "partial", "warns"])
@pytest.mark.parametrize("k, in_scope", [(1, False), (3, False), (3, True)],
                         ids=["one-range", "no-scope", "scope"])
def test_failing_range_raises_and_leaves_nothing_running_or_open(tmp_path, monkeypatch,
                                                                 files, kernel, k, in_scope):
    # The first failing range in row order is reported, whichever thread ran it.
    monkeypatch.setattr(floattext, "format_rows", kernel)
    header, columns = _table()
    with _ranges(k), pytest.raises(OSError, match=rf"CSV worker for rows 0-{3000 // k} failed: "
                                                  r"(RuntimeError: kernel failed|"
                                                  r"FloatingPointError: divide by zero)"):
        with artifacts.deferred_tables() if in_scope else contextlib.nullcontext():
            write_csv(tmp_path / "out.csv", header, columns)
    assert _pool_threads() == []
    assert len(files) == (k if k > 1 else 0) and all(fh.closed for fh in files)


def test_writer_error_stops_and_waits_for_running_ranges(tmp_path, monkeypatch, files):
    # Two ranges on the two pool threads of three CPUs, both started before
    # the join: the first writes one row, the second formats until stopped.
    # Appending the first range's text to the file fails.
    started = threading.Barrier(3)  # both ranges and this thread
    deadline = time.monotonic() + 30

    def kernel(columns, start, stop):
        started.wait(60)
        if len(columns[0]) == 1500:
            yield b"1,2\n"
            return
        while time.monotonic() < deadline:
            time.sleep(0.001)
            yield b"1,2\n"

    def disk_full(source, dest):
        raise OSError("disk full")

    monkeypatch.setattr(floattext, "format_rows", kernel)
    monkeypatch.setattr(shutil, "copyfileobj", disk_full)
    monkeypatch.setattr(artifacts, "_usable_cpus", lambda: 3)
    header, columns = _table(3001)
    monkeypatch.setattr(artifacts, "CSV_CELLS_PER_RANGE", 3001)  # 6,002 cells: two ranges
    began = time.monotonic()
    with pytest.raises(OSError, match="disk full"), artifacts.deferred_tables():
        write_csv(tmp_path / "out.csv", header, columns)
        started.wait(60)
    assert time.monotonic() - began < 10  # stopped within a block, not at the deadline
    assert _pool_threads() == []
    assert len(files) == 2 and all(fh.closed for fh in files)


# The special floats, the fast path's bounds 1e-4 and 1e16 of the numpy
# formatter, and the extreme doubles, each with its neighbour on either side.
_EDGE_FLOATS = [float("nan"), float("inf"), 0.0, 5e-324, 1.7976931348623157e308, 1e-4, 1e16]


def test_thread_ranges_write_the_bytes_of_format_rows_at_the_edges(tmp_path, files):
    x = floattext_sweep.with_neighbours(np.array(_EDGE_FLOATS))
    x = np.concatenate([x, -x])
    ints = np.resize(np.array([-2**63, 2**63 - 1, 0, -1], np.int64), len(x))
    header, columns = ("ts", "x"), [ints, x]
    with _ranges(2):
        write_csv(tmp_path / "out.csv", header, columns)
    assert (tmp_path / "out.csv").read_bytes() == _want(header, columns)
    assert _pool_threads() == []
    assert len(files) == 2 and all(fh.closed for fh in files)


def test_a_thread_range_writes_no_bytecode_when_its_process_writes_none(tmp_path):
    # floattext is imported only when a numpy table is written, and
    # concurrent.futures only when one is split; neither may then cache
    # bytecode in the package when the process is asked not to.
    package = tmp_path / "kellybt"
    shutil.copytree(os.path.dirname(artifacts.__file__), package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    script = ("import sys, numpy as np; from kellybt import artifacts; "
              "artifacts.CSV_CELLS_PER_RANGE = 1; "
              "artifacts._usable_cpus = lambda: 2; "
              "artifacts.write_csv(sys.argv[1], ('x',), [np.arange(4.0)])")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(tmp_path)}
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "out.csv")], env=env,
                   check=True)
    assert (tmp_path / "out.csv").read_bytes() == b"x\n0.0\n1.0\n2.0\n3.0\n"
    assert not list(package.rglob("__pycache__"))


def test_every_split_range_is_formatted_by_floattext_in_this_process(tmp_path, monkeypatch):
    header, columns = _table(3001)  # ranges of 1,500 and 1,501 rows: 3,000 and 3,002 cells
    release, given_rows = _held_format_rows(monkeypatch)
    release.set()
    with _ranges(2):
        write_csv(tmp_path / "out.csv", header, columns)
    assert (tmp_path / "out.csv").read_bytes() == _want(header, columns)
    assert sorted(len(ts) for ts, _ in given_rows) == [1500, 1501]


def test_the_cli_starts_without_subprocess_or_a_thread_pool():
    # Each would add to every command's start; only a split table needs a
    # pool, and only a numpy table the numpy formatter.
    script = ("import sys, kellybt.cli; print(sorted({'subprocess', 'concurrent.futures', "
              "'kellybt.floattext'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(artifacts.__file__))}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_a_floating_point_warning_in_a_thread_range_fails_its_command(tmp_path, monkeypatch,
                                                                     capsys):
    def warns(columns, start, stop):  # a kernel that divides by zero
        np.log(np.zeros(1))
        yield b""

    monkeypatch.setattr(floattext, "format_rows", warns)
    with _ranges(2):
        code = cli.main(["synth", "--n", "100", "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_IO
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "io"
    assert re.fullmatch(r"CSV worker for rows \d+-\d+ failed: FloatingPointError: "
                        r"divide by zero encountered in log", record["message"])
    assert not (tmp_path / "run" / "manifest.json").exists()


def _held_format_rows(monkeypatch):
    """Make each thread range wait for the returned event before it formats;
    returns the event and the list of column lists the ranges were given."""
    release, given_rows = threading.Event(), []
    format_rows = floattext.format_rows

    def held(columns, start, stop):
        given_rows.append(columns)
        assert release.wait(60)
        yield from format_rows(columns, start, stop)

    monkeypatch.setattr(floattext, "format_rows", held)
    return release, given_rows


def test_a_column_changed_after_write_csv_in_a_scope_leaves_the_table_as_written(tmp_path,
                                                                                 monkeypatch):
    (ts_name, x_name), (ts, x) = _table()
    ts.setflags(write=False)
    y_base = x[::-1].copy()
    y = y_base.view()
    y.setflags(write=False)  # read-only, but a view of a writable array
    header, columns = (ts_name, x_name, "y"), [ts, x, y]
    want = _want(header, columns)
    release, given_rows = _held_format_rows(monkeypatch)
    with _ranges(2), artifacts.deferred_tables():
        write_csv(tmp_path / "out.csv", header, columns)
        x[:] = 0.5
        y_base[:] = 0.25
        release.set()
    assert (tmp_path / "out.csv").read_bytes() == want
    assert len(given_rows) == 2
    for ts_rows, x_rows, y_rows in given_rows:
        assert np.shares_memory(ts_rows, ts)  # no one can write it: not copied
        assert not np.shares_memory(x_rows, x) and not np.shares_memory(y_rows, y)


def test_features_csv_ranges_read_the_matrix_without_a_copy(tmp_path, monkeypatch):
    matrix = build_feature_matrix(generate_synthetic_series(seed=3, n=400), default_grid())
    assert not matrix.values.flags.writeable and not matrix.timestamps.flags.writeable
    release, given_rows = _held_format_rows(monkeypatch)
    release.set()
    with _ranges(2):
        write_matrix_csv(matrix, str(tmp_path / "features.csv"))
    assert len(given_rows) == 2
    for ts, *values in given_rows:
        assert np.shares_memory(ts, matrix.timestamps)
        assert all(np.shares_memory(v, matrix.values) for v in values)


def test_a_scope_left_by_an_exception_stops_its_thread_ranges(tmp_path, monkeypatch, files):
    started = threading.Barrier(3)  # the two pool threads' ranges and this thread
    deadline = time.monotonic() + 30
    calls = []

    def endless(columns, start, stop):  # one short block at a time, until stopped
        calls.append(len(columns[0]))
        started.wait(60)
        while time.monotonic() < deadline:
            time.sleep(0.001)
            yield b"1,2\n"

    monkeypatch.setattr(floattext, "format_rows", endless)
    header, columns = _table()
    began = time.monotonic()
    with _ranges(3), pytest.raises(RuntimeError, match="command failed"):
        with artifacts.deferred_tables():
            write_csv(tmp_path / "out.csv", header, columns)
            started.wait(60)
            assert len(_pool_threads()) == 2
            raise RuntimeError("command failed")
    assert time.monotonic() - began < 10  # stopped within a block, not at the deadline
    assert calls == [1000, 1000]  # the third range, still queued, was cancelled
    assert _pool_threads() == []
    assert len(files) == 3 and all(fh.closed for fh in files)


def test_no_more_than_usable_cpus_ranges_format_at_once(tmp_path, monkeypatch):
    # Three tables of three ranges each keep both pool threads of three CPUs
    # busy; the first join finds its last range still queued, so the joining
    # thread formats it while the pool threads run.
    lock, active, peak = threading.Lock(), [0], [0]
    format_rows = floattext.format_rows

    def counted(columns, start, stop):
        with lock:
            active[0] += 1
            peak[0] = max(peak[0], active[0])
        try:
            time.sleep(0.05)
            yield from format_rows(columns, start, stop)
        finally:
            with lock:
                active[0] -= 1

    monkeypatch.setattr(floattext, "format_rows", counted)
    header, columns = _table()
    with _ranges(3), artifacts.deferred_tables():
        for name in ("a", "b", "c"):
            write_csv(tmp_path / f"{name}.csv", header, columns)
    assert peak[0] == 3
    for name in ("a", "b", "c"):
        assert (tmp_path / f"{name}.csv").read_bytes() == _want(header, columns)


def test_the_joining_thread_formats_a_queued_range_while_a_pool_thread_is_blocked(tmp_path,
                                                                                monkeypatch):
    # Two CPUs: one pool thread. A range the pool thread runs blocks until the
    # joining thread has formatted one; a join that waited for the started
    # range before formatting the queued one would hold it for 10 s and fail.
    formatted_here = threading.Event()
    format_rows = floattext.format_rows

    def kernel(columns, start, stop):
        if threading.current_thread() is threading.main_thread():
            formatted_here.set()
        else:
            assert formatted_here.wait(10)
        yield from format_rows(columns, start, stop)

    monkeypatch.setattr(floattext, "format_rows", kernel)
    header, columns = _table()
    began = time.monotonic()
    with _ranges(2):
        write_csv(tmp_path / "out.csv", header, columns)
    assert time.monotonic() - began < 5
    assert formatted_here.is_set()
    assert (tmp_path / "out.csv").read_bytes() == _want(header, columns)


def test_many_ranges_on_more_threads_than_cores_write_the_bytes_of_one_range(tmp_path):
    # Seven pool threads on this machine's cores, switching often: a join
    # claims queued ranges as pool threads take them, and each table must
    # still hold every range once, in order.
    rng = np.random.default_rng(8)
    tables = [[_column(rng, kind, n, 0.05) for kind in ("int64", "float64", "int8", "str")]
              for n in (40, 333, 1000, 2500)]
    header = ("a", "b", "c", "d")
    wants = [_want(header, columns) for columns in tables]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            with _ranges(8), artifacts.deferred_tables():
                for j, columns in enumerate(tables):
                    write_csv(tmp_path / f"t{j}.csv", header, columns)
            for j, want in enumerate(wants):
                assert (tmp_path / f"t{j}.csv").read_bytes() == want
    finally:
        sys.setswitchinterval(interval)
    assert _pool_threads() == []


@pytest.mark.parametrize("fails", [False, True], ids=["ok", "failing-range"])
def test_no_kellybt_thread_is_alive_after_cli_main_returns(tmp_path, monkeypatch, fails):
    if fails:
        monkeypatch.setattr(floattext, "format_rows", _writes_then_raises)
    with _ranges(2):
        code = cli.main(["simulate", "--n", "600", "--out", str(tmp_path / "run")])
    assert code == (cli.EXIT_IO if fails else 0)
    assert [t.name for t in threading.enumerate() if t.name.startswith("kellybt")] == []


# --- the deferred_tables scope ------------------------------------------------------


@settings(derandomize=True, database=None, deadline=None, max_examples=6,
          phases=[Phase.explicit, Phase.generate])
@given(seed=seeds, k=st.integers(1, 4), rate=st.sampled_from([0.0, 0.05, 1.0]),
       tables=st.lists(st.tuples(st.integers(0, 3000),
                                 st.lists(st.sampled_from(KINDS), min_size=1, max_size=4)),
                       min_size=1, max_size=3))
@example(seed=0, k=3, rate=0.05, tables=[(3000, ["int64", "float64"]), (7, ["int8"])])
def test_deferred_tables_write_the_bytes_of_immediate_ones(seed, k, rate, tables):
    rng = np.random.default_rng(seed)
    tables = [[_column(rng, kind, n, rate) for kind in kinds] for n, kinds in tables]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"t{j}.csv") for j in range(len(tables))]
        with _ranges(k), artifacts.deferred_tables():
            for path, columns in zip(paths, tables):
                write_csv(path, tuple(f"c{j}" for j in range(len(columns))), columns)
        for path, columns in zip(paths, tables):
            with open(path, "rb") as fh:
                assert fh.read() == _want(tuple(f"c{j}" for j in range(len(columns))), columns)


def test_a_path_written_twice_in_a_scope_holds_the_second_table(tmp_path, files):
    header, long_table = _table(3000)
    _, short_table = _table(2000)
    with _ranges(2), artifacts.deferred_tables():
        write_csv(tmp_path / "out.csv", header, long_table)
        write_csv(tmp_path / "out.csv", header, short_table)
    assert (tmp_path / "out.csv").read_bytes() == _want(header, short_table)
    assert _pool_threads() == []
    assert len(files) == 4 and all(fh.closed for fh in files)


@pytest.mark.parametrize("k, in_scope", [(3, False), (1, True)],
                         ids=["no-scope", "one-range-in-scope"])
def test_write_csv_returns_a_complete_table_outside_a_scope_or_of_one_range(tmp_path, files,
                                                                           k, in_scope):
    header, columns = _table()
    with _ranges(k), (artifacts.deferred_tables() if in_scope else contextlib.nullcontext()):
        write_csv(tmp_path / "out.csv", header, columns)
        assert (tmp_path / "out.csv").read_bytes() == _want(header, columns)
        assert len(files) == (0 if in_scope else 3)
        assert all(fh.closed for fh in files)
        # A call's own pool lives until it returns; one range starts none.
        assert _pool_threads() == []


def test_a_scope_defers_only_the_writes_of_its_own_thread(tmp_path):
    header, columns = _table()
    with _ranges(2), artifacts.deferred_tables():
        thread = threading.Thread(target=write_csv, args=(tmp_path / "out.csv", header, columns))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert (tmp_path / "out.csv").read_bytes() == _want(header, columns)


@pytest.mark.parametrize("error, code", [
    (ValueError("bad option"), cli.EXIT_CONFIG),
    (artifacts.DataError("bad row"), cli.EXIT_DATA),
    (FileNotFoundError("no input"), cli.EXIT_MISSING_INPUT),
], ids=["config", "data", "missing"])
def test_command_failing_after_a_deferred_write_stops_its_workers(tmp_path, monkeypatch,
                                                                  files, capsys, error, code):
    started = threading.Barrier(2)  # the pool thread's range and the command
    deadline = time.monotonic() + 30
    calls = []

    def endless(columns, start, stop):
        calls.append(start)
        started.wait(60)
        while time.monotonic() < deadline:
            time.sleep(0.001)
            yield b""

    monkeypatch.setattr(floattext, "format_rows", endless)
    header, columns = _table()

    def command(resolved, out):
        write_csv(out("table.csv"), header, columns)
        started.wait(60)
        raise error

    monkeypatch.setitem(cli._COMMANDS, "synth", command)
    began = time.monotonic()
    with _ranges(2):
        assert cli.main(["synth", "--out", str(tmp_path / "run")]) == code
    assert time.monotonic() - began < 10
    assert json.loads(capsys.readouterr().err)["message"] == str(error)
    assert len(calls) == 1  # the range on the pool thread ran; the queued one was cancelled
    assert _pool_threads() == []
    assert len(files) == 2 and all(fh.closed for fh in files)
    assert not (tmp_path / "run" / "manifest.json").exists()


@pytest.mark.parametrize("column", [
    ["up"] * 3000,                                  # strings
    [1.0] * 2999 + [None],                          # a list with None
    np.ones(3000, np.float32),                      # a dtype floattext does not format
], ids=["str-list", "none-list", "float32"])
def test_table_with_another_column_type_keeps_one_range(tmp_path, monkeypatch, files, column):
    # Formatted with the standard library in one piece: floattext is not called.
    monkeypatch.setattr(floattext, "format_rows", _raises)
    header, columns = _table()
    header, columns = header + ("note",), columns + [column]
    with _ranges(4):
        write_csv(tmp_path / "out.csv", header, columns)
    assert files == []
    assert (tmp_path / "out.csv").read_bytes() == _want(header, columns)


def test_one_usable_cpu_or_a_small_table_starts_no_worker(tmp_path, files):
    n = artifacts.CSV_CELLS_PER_RANGE  # two columns: the cells of two ranges
    header, columns = _table(n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(artifacts, "_usable_cpus", lambda: 1)
        assert artifacts._row_ranges(columns, n) == [0, n]
        write_csv(tmp_path / "out.csv", header, columns)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(artifacts, "_usable_cpus", lambda: 8)
        assert artifacts._row_ranges(columns, n) == [0, n // 2, n]
        assert artifacts._row_ranges(columns, n - 1) == [0, n - 1]  # two cells short
    assert files == []


# The shapes of simulate's predictions.csv and equity_*.csv, of features'
# labels.csv and of label's barrier_labels.csv on a 50,000-bar series.
@pytest.mark.parametrize("n, kinds", [
    (49_745, ["int64", "float64", "float64", "float64"]),
    (49_746, ["int64", "float64"]),
    (49_995, ["int64", "int8", "float64", "float64"]),
    (49_995, ["int64", "int64", "str", "int64"]),
], ids=["predictions", "equity", "labels", "barrier-labels"])
def test_full_size_tables_take_two_ranges_on_two_cpus(monkeypatch, n, kinds):
    rng = np.random.default_rng(n)
    columns = [_column(rng, kind, n, 0.05) for kind in kinds]
    header = tuple(f"c{j}" for j in range(len(columns)))
    monkeypatch.setattr(artifacts, "_usable_cpus", lambda: 2)
    assert artifacts._row_ranges(columns, n) == [0, n // 2, n]
    assert _written(lambda path: write_csv(path, header, columns)) == _want(header, columns)


# --- the SVG chart ----------------------------------------------------------------

CURVE_SHAPES = ["empty", "point", "constant", "negative", "ruin", "wide", "long", "nonfinite"]


def _curve(rng, shape):
    """Hours since the first point and values of one curve of ``shape``. A
    long curve spans blocks of the chart's writer; a nonfinite one starts
    with NaN and holds an infinity."""
    n = {"empty": 0, "point": 1, "long": int(rng.integers(19_000, 21_000))}.get(
        shape, int(rng.integers(2, 400)))
    xs = np.cumsum(rng.integers(0, 6, n)) * float(rng.choice([1.0, 0.25, 1e-3]))
    ys = 1e4 * np.exp(np.cumsum(rng.normal(0.0, 0.02, n)))
    if shape == "constant":
        ys = np.full(n, ys[0])
    elif shape == "negative":
        ys = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-6, 7)
    elif shape == "ruin":
        ys[-int(rng.integers(1, n)):] = 0.0
    elif shape == "wide":
        ys = rng.standard_normal(n) * 10.0 ** rng.integers(-200, 201, n)
    elif shape == "nonfinite":
        ys[0] = np.nan
        ys[int(rng.integers(1, n))] = np.inf
    return xs, ys


@settings(EXACT, max_examples=40)
@given(seed=seeds, shapes=st.lists(st.sampled_from(CURVE_SHAPES), min_size=1, max_size=5),
       as_lists=st.booleans())
@example(seed=0, shapes=["point"], as_lists=False)  # both spans 0
@example(seed=1, shapes=["empty", "ruin", "constant"], as_lists=True)
@example(seed=2, shapes=["negative", "empty", "point"], as_lists=False)
@example(seed=3, shapes=["long", "ruin"], as_lists=False)
@example(seed=4, shapes=["nonfinite", "long"], as_lists=False)
def test_svg_chart_matches_the_per_point_writer(seed, shapes, as_lists):
    # The per-point writer bounds the chart by Python's min and max over every
    # point, which return NaN only when the first point is NaN; the chart
    # takes numpy's per curve, which return NaN when a curve holds one. A
    # nonfinite curve, whose first point is NaN, is drawn first, where both
    # make every y NaN.
    shapes = sorted(shapes, key=lambda shape: shape != "nonfinite")
    rng = np.random.default_rng(seed)
    curves = []
    for k, shape in enumerate(shapes):
        xs, ys = _curve(rng, shape)
        if as_lists:
            xs, ys = xs.tolist(), ys.tolist()
        curves.append((f"policy {k}", xs, ys))
    if all(shape == "empty" for shape in shapes):
        for write in (artifacts.svg_line_chart, oracles.o_svg_line_chart):
            with pytest.raises(ValueError, match="nothing to plot"):
                write(curves, os.devnull)
        return
    assert _written(artifacts.svg_line_chart, curves) == \
        _written(oracles.o_svg_line_chart, curves)


# The four axis labels (the bounds) and each polyline's points.
_BOUNDS_TEXT = re.compile(r'font-size="11">([^<]*)</text>')
_POINTS = re.compile(r'<polyline points="([^"]*)"')


@settings(EXACT, max_examples=8)
@given(seed=seeds, shapes=st.lists(st.sampled_from(CURVE_SHAPES), min_size=2, max_size=4))
@example(seed=5, shapes=["wide", "nonfinite"])  # the NaN in the second curve
@example(seed=6, shapes=["negative", "constant", "nonfinite", "point"])
def test_svg_chart_bounds_and_polylines_do_not_depend_on_curve_order(seed, shapes):
    rng = np.random.default_rng(seed)
    curves = [(f"policy {k}", *_curve(rng, shape)) for k, shape in enumerate(shapes)]
    if all(shape == "empty" for shape in shapes):
        return
    drawn = set()
    for order in itertools.permutations(curves):
        text = _written(artifacts.svg_line_chart, list(order)).decode()
        drawn.add((tuple(_BOUNDS_TEXT.findall(text)), tuple(sorted(_POINTS.findall(text)))))
    assert len(drawn) == 1
