"""The one CSV writer, ``artifacts.write_csv``, and every artifact writer built
on it: each writes the same bytes as the hand-written writer it replaced
(kept in oracles.py), including across the writer's block boundaries, and
the same bytes when a table is split into row ranges formatted by workers."""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from kellybt import artifacts, cli
from kellybt.artifacts import write_csv
from kellybt.backtest import EquityCurve, Trade, write_equity_csv, write_trades_csv
from kellybt.candles import HOUR, CandleSeries, generate_synthetic_series
from kellybt.csvrows import BLOCK_ROWS
from kellybt.features import (FeatureMatrix, LabelSet, make_labels, write_labels_csv,
                              write_matrix_csv)
from kellybt.labeling import BarrierLabels, write_barrier_labels_csv
from kellybt.metrics import BacktestReport, classification_report
from kellybt.predictors import (Predictions, Scenarios, load_predictions,
                                write_predictions_csv)

import oracles

# Inputs are drawn from a seed, so shrinking a failure finds nothing smaller.
EXACT = settings(derandomize=True, database=None, deadline=None, max_examples=4,
                 phases=[Phase.explicit, Phase.generate])

seeds = st.integers(0, 2**32 - 1)

# Empty, one row, and each side of the first and second block boundary.
ROW_COUNTS = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]

SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-300, 1e300,
           -1e300, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3]
POSITIVE = [5e-324, 1e-300, 1e300, 1.7976931348623157e308, 0.1, 1 / 3, 30000.0]


@contextlib.contextmanager
def _ranges(k):
    """``write_csv`` as with ``k`` usable CPUs and one cell per range: a
    numeric table of at least ``k`` cells is split into ``k`` row ranges."""
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
    return rng.integers(-2**62, 2**62, n)


def _matrix(rng, n, rate):
    k = int(rng.integers(1, 6))
    names = tuple(f"col_{j}" for j in range(k))
    return (FeatureMatrix(_timestamps(rng, n), names, _floats(rng, n * k, rate).reshape(n, k)),)


def _labels(rng, n, rate):
    return (LabelSet(np.sort(_timestamps(rng, n)), rng.choice(np.array([-1, 1], np.int8), n),
                     _floats(rng, n, rate), _floats(rng, n, rate), 5),)


def _barrier_labels(rng, n, rate):
    series = generate_synthetic_series(seed=int(rng.integers(1000)), n=n + 1)
    entries = rng.integers(0, n + 1, n).tolist()
    kinds = rng.choice(["UPPER", "LOWER", "VERTICAL", "AMBIGUOUS"], n).tolist()
    return series, BarrierLabels(entries, rng.integers(-1, 2, n), rng.integers(1, 40, n), kinds)


def _o_write_barrier_labels_csv(series, labeled, path):
    oracles.o_write_barrier_labels_csv(series, oracles.barrier_label_records(labeled), path)


def _trades(rng, n, rate):
    sides = rng.choice(["LONG", "SHORT", "FLAT"], n).tolist()
    floats = [_floats(rng, n, rate).tolist() for _ in range(5)]
    return (list(map(Trade, _timestamps(rng, n).tolist(), _timestamps(rng, n).tolist(),
                     sides, *floats)),)


def _equity(rng, n, rate):
    return (EquityCurve(_timestamps(rng, n), _floats(rng, n, rate)),)


def _predictions(rng, n, rate):
    # Both frames draw from twice as many timestamps, so some estimates are missing.
    def timestamps():
        return np.sort(rng.choice(2 * n + 2, n, replace=False))

    preds = Predictions(timestamps(), _floats(rng, n, rate))
    mode = rng.choice(["none", "empty", "subset"])
    if mode == "none":
        return preds, None
    if mode == "empty":
        return preds, Scenarios([], [], [])
    return preds, Scenarios(timestamps(), _floats(rng, n, rate), _floats(rng, n, rate))


def _o_write_predictions_csv(preds, ests, path):
    oracles.o_write_predictions_csv(oracles.prediction_records(preds),
                                    None if ests is None else oracles.scenario_records(ests),
                                    path)


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
              **cli._report_dict(r)} for i, r in enumerate(_reports(rng, n, rate))],)


# name -> (build(rng, n, rate) -> writer args before the path, writer, oracle)
CASES = {
    "features.write_matrix_csv": (_matrix, write_matrix_csv, oracles.o_write_matrix_csv),
    "features.write_labels_csv": (_labels, write_labels_csv, oracles.o_write_labels_csv),
    "labeling.write_barrier_labels_csv": (_barrier_labels, write_barrier_labels_csv,
                                          _o_write_barrier_labels_csv),
    "backtest.write_trades_csv": (_trades, write_trades_csv, oracles.o_write_trades_csv),
    "backtest.write_equity_csv": (_equity, write_equity_csv, oracles.o_write_equity_csv),
    "predictors.write_predictions_csv": (_predictions, write_predictions_csv,
                                         _o_write_predictions_csv),
    "cli._write_table5": (_table5, cli._write_table5, oracles.o_write_table5),
    "cli._write_comparison": (_comparison, cli._write_comparison,
                              oracles.o_write_comparison),
}


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
    got, want = io.StringIO(), io.StringIO()
    series.to_csv(got)
    oracles.o_to_csv(series, want)
    assert got.getvalue() == want.getvalue()
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
    preds = Predictions(labels.timestamps, p_up)
    series.to_csv(str(tmp_path / "candles.csv"))
    write_predictions_csv(preds, None, str(tmp_path / "preds.csv"))
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


def test_write_csv_formats_cells():
    buf = io.StringIO()
    write_csv(buf, ("ts", "note", "x"),
              [np.array([1, -2], np.int64), [None, "up"], np.array([0.1, -0.0])])
    assert buf.getvalue() == "ts,note,x\n1,NA,0.1\n-2,up,-0.0\n"
    assert not buf.closed  # only a file it opened itself is closed


def test_write_csv_without_columns_writes_the_header(tmp_path):
    write_csv(tmp_path / "empty.csv", ("a", "b"), [])
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


@pytest.mark.parametrize("columns", [[[1, 2], [3]], [[1, 2]], [[1], [2], [3]]])
def test_write_csv_rejects_columns_that_do_not_fit_the_header(columns):
    with pytest.raises(ValueError, match="columns of one length"):
        write_csv(io.StringIO(), ("a", "b"), columns)


def _column(rng, kind, n, rate):
    if kind == "float64":
        return _floats(rng, n, rate)
    info = np.iinfo(kind)
    col = rng.integers(info.min, info.max, n, dtype=kind, endpoint=True)
    mask = rng.random(n) < rate
    col[mask] = rng.choice(np.array([info.min, info.max, 0, -1, 1], kind), int(mask.sum()))
    return col


# (rows, ranges): range bounds on block boundaries (1024, 2048), inside blocks
# (1500; 625, 1250, 1875), and ranges shorter than a block.
@pytest.mark.parametrize("n, k", [(2048, 2), (3072, 3), (3000, 2), (2500, 4), (7, 3)])
@settings(derandomize=True, database=None, deadline=None, max_examples=3,
          phases=[Phase.explicit, Phase.generate])
@given(seed=seeds, rate=st.sampled_from([0.0, 0.05, 1.0]),
       kinds=st.lists(st.sampled_from(["float64", "int64", "int8"]), min_size=1, max_size=4))
def test_row_ranges_write_the_bytes_of_one_range(n, k, seed, rate, kinds):
    rng = np.random.default_rng(seed)
    columns = [_column(rng, kind, n, rate) for kind in kinds]
    header = tuple(f"c{j}" for j in range(len(columns)))
    with _ranges(1):
        want = _written(lambda path: write_csv(path, header, columns))
    with _ranges(k):
        assert artifacts._row_ranges(columns, n) == [n * i // k for i in range(k + 1)]
        assert _written(lambda path: write_csv(path, header, columns)) == want
        buf = io.StringIO()
        write_csv(buf, header, columns)
        assert buf.getvalue().encode() == want


@pytest.fixture
def made(monkeypatch):
    """Every process and temporary file made during the test, in two lists."""
    procs, files = [], []
    popen, temporary_file = subprocess.Popen, tempfile.TemporaryFile

    def recorded(make, into):
        def wrapper(*args, **kwargs):
            into.append(make(*args, **kwargs))
            return into[-1]
        return wrapper

    monkeypatch.setattr(subprocess, "Popen", recorded(popen, procs))
    monkeypatch.setattr(tempfile, "TemporaryFile", recorded(temporary_file, files))
    return procs, files


def _table(n=3000):
    rng = np.random.default_rng(5)
    return ("ts", "x"), [_timestamps(rng, n), _floats(rng, n, 0.05)]


@pytest.mark.parametrize("script", [
    "import sys; sys.exit(3)",                                           # reads nothing
    "import sys; sys.stdout.write('1,2\\n'); sys.exit('worker failed')",  # part written
    "import os, signal; os.kill(os.getpid(), signal.SIGKILL)",            # killed
], ids=["exit", "partial", "killed"])
@pytest.mark.parametrize("to_path", [True, False])
def test_failing_worker_raises_and_leaves_nothing_running_or_open(tmp_path, monkeypatch,
                                                                   made, script, to_path):
    monkeypatch.setattr(artifacts, "_WORKER", (sys.executable, "-I", "-S", "-c", script))
    header, columns = _table()
    with _ranges(3), pytest.raises(OSError, match=r"CSV worker for rows 1000-2000 exited "
                                                  r"with code (3|1: worker failed|-9)"):
        write_csv(tmp_path / "out.csv" if to_path else io.StringIO(), header, columns)
    procs, files = made
    assert len(procs) == 2 and len(files) == 4
    assert all(proc.returncode is not None for proc in procs)
    assert all(fh.closed for fh in files)


class _FailingStream(io.StringIO):
    def write(self, text):
        if self.tell():
            raise OSError("disk full")
        return super().write(text)


def test_writer_error_kills_and_waits_for_running_workers(monkeypatch, made):
    monkeypatch.setattr(artifacts, "_WORKER",
                        (sys.executable, "-I", "-S", "-c", "import time; time.sleep(60)"))
    header, columns = _table()
    with _ranges(2), pytest.raises(OSError, match="disk full"):
        write_csv(_FailingStream(), header, columns)  # fails on the first rows
    procs, files = made
    assert [proc.returncode for proc in procs] == [-9]
    assert len(files) == 2 and all(fh.closed for fh in files)


@pytest.mark.parametrize("column", [
    ["up"] * 3000,                                  # strings
    [1.0] * 2999 + [None],                          # a list with None
    np.array(["up"] * 3000),                        # a numpy string array
    np.ones(3000, np.float32),                      # a dtype no worker reads
], ids=["str-list", "none-list", "str-array", "float32"])
def test_table_with_another_column_type_keeps_one_range(made, column):
    header, columns = _table()
    buf = io.StringIO()
    with _ranges(4):
        assert artifacts._row_ranges(columns + [column], 3000) == [0, 3000]
        write_csv(buf, header + ("note",), columns + [column])
    assert made == ([], [])
    assert buf.getvalue().count("\n") == 3001


def test_one_usable_cpu_or_a_small_table_starts_no_worker(made):
    header, columns = _table(100_000)  # 200,000 cells
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(artifacts, "_usable_cpus", lambda: 1)
        assert artifacts._row_ranges(columns, 100_000) == [0, 100_000]
        write_csv(io.StringIO(), header, columns)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(artifacts, "_usable_cpus", lambda: 8)
        assert artifacts._row_ranges(columns, 100_000) == [0, 50_000, 100_000]
        assert artifacts._row_ranges(columns, 99_999) == [0, 99_999]  # 199,998 cells
    assert made == ([], [])
