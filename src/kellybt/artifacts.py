"""Run manifests, the CSV reader and writers, and deterministic SVG charts.

Every artifact-producing command writes exactly one ``manifest.json`` into
its output directory recording the command, the fully resolved config,
input digests, seeds, and artifact digests, so a run can be reproduced and
verified byte for byte. SVG output embeds no timestamps or randomness.
``svg_line_chart`` streams each polyline to its file: the ``"%.2f"`` text of
the points comes from ``floattext.fixed2_fields``, at most
``floattext.BLOCK_CELLS`` coordinates at a time, and each block is written as
soon as it is built, so the chart's text is never held whole.

Every CSV kellybt writes goes through ``write_csv``, which owns the text
format: a header row, one ``str`` per cell (for a float that is its shortest
round-trip text, as ``repr`` gives), ``NA`` for a missing value and ``\n``
line ends. A large numeric table is formatted on every CPU the process may
use: workers format it in contiguous row ranges, and their text is joined in
order, so the bytes do not depend on how many there are. A range of at least
``CSV_CELLS_FOR_NUMPY`` cells is formatted by a thread of this process with
numpy arrays (``floattext``), which releases the GIL inside its loops, so
such threads run in parallel; a smaller one by a worker process (``csvrows``
run as a script) with the standard library. Both write the same bytes; the
thread takes about a third of the time a cell.

The join of a table's workers is one step: wait for each worker in order,
append its text, close the file. Inside a ``deferred_tables()`` scope, a
table written to a path is joined when the scope exits, so the workers format
it while the caller goes on computing; the CLI opens one scope around each
command, so every table is joined before the manifest hashes it. A thread
reads the caller's arrays then, so ``write_csv`` hands it a read-only column
as it is and a copy of a writable one. With no scope open, or for a stream,
the join runs before ``write_csv`` returns. A scope left by an exception
stops and waits for every worker it still holds (a process is killed, a
thread stops after its current block) and closes every file.

Every CSV kellybt loads goes through ``read_csv``: the ``csv`` module reads
the header, whitespace-only lines are skipped and numpy's C reader
(``np.loadtxt``) reads the data rows, the timestamp with its integer parser,
so a timestamp is an integer literal read exactly. A bad row is a
``DataError`` naming its file line.
"""
from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import re
import shutil
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from contextvars import ContextVar

import numpy as np

from . import __version__, csvrows

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# Cells a table needs per row range before ``write_csv`` splits it: each range
# goes to a worker process, which takes 15-25 ms to start, about as long as
# formatting 25,000 cells in-process (about 1 us a cell).
CSV_CELLS_PER_RANGE = 25_000

# Cells a row range needs before a thread of this process formats it with
# numpy instead of a worker process with the standard library. A thread costs
# nothing to start and formats a cell in about 0.35 us against 1.1 us, but its
# blocks' arrays count toward this process's peak memory. On a 2-CPU x86-64
# machine, putting every split range on a thread took dense_overlap's
# peak_rss_mb from 67.9 to 109 MB (+61 %) for a pass_ref of 2.26-2.54 against
# 2.43-2.45; with this threshold its tables stay in worker processes and only
# features.csv ranges take threads.
CSV_CELLS_FOR_NUMPY = 200_000

# The numpy dtypes a worker reads, by their ``array`` type code.
_WORKER_CODES = {np.dtype(np.float64): "d", np.dtype(np.int64): "q", np.dtype(np.int8): "b"}

# The worker process: a fresh interpreter running csvrows.py without
# site-packages, in which a warning is an error.
_WORKER = (sys.executable, "-I", "-S", "-W", "error", csvrows.__file__)

# Where numpy's loadtxt names the data row in a ValueError.
_NUMPY_ROW = re.compile(r" at row (\d+)(,?)")

# The innermost open ``deferred_tables`` scope of this thread, or None: the
# path of each table it has still to join, mapped to the arguments of ``_join``.
_PENDING: ContextVar[dict | None] = ContextVar("_PENDING", default=None)


class DataError(ValueError):
    """Malformed or invariant-violating input data."""


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def open_text(dest, mode: str):
    """``dest`` itself when it is an open text stream, else the file at that
    path opened as UTF-8, whatever the locale, with ``newline=""``; only a
    file opened here is closed here. A byte that is not UTF-8 passes as a
    surrogate escape: a command-line byte the locale could not decode is
    written back as that byte, and one read from a file reaches the parser,
    which rejects its row by line."""
    if not isinstance(dest, (str, bytes, os.PathLike)):
        yield dest
        return
    with open(dest, mode, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        yield fh


def write_csv(dest, header, columns) -> None:
    """Write a header row, then one row per index of ``columns``.

    ``dest`` is a path or an open text stream (see ``open_text``).
    ``columns`` holds one sequence (numpy array or list) per header field,
    all of one length, or is empty for a file with no rows. A cell is
    ``str`` of the value (numpy values via ``.tolist()``), or ``NA`` for None.

    When every column is a float64, int64 or int8 numpy array, the rows are
    split into ``k`` contiguous ranges, ``k`` being the smaller of the usable
    CPUs and ``cells // CSV_CELLS_PER_RANGE``. With ``k >= 2`` a worker
    formats each range (a thread with numpy from ``CSV_CELLS_FOR_NUMPY``
    cells, else a process), and ``_join`` appends their text in order.
    Inside a ``deferred_tables`` scope, the join of a table bound for a path
    waits for the scope's exit (a later write to that path replaces the table
    unjoined); otherwise it runs before this returns. A worker that fails
    raises OSError.
    """
    n = len(columns[0]) if columns else 0
    if columns and (len(columns) != len(header) or any(len(c) != n for c in columns)):
        raise ValueError(f"need {len(header)} columns of one length for header {header}")
    scope = _PENDING.get() if isinstance(dest, (str, bytes, os.PathLike)) else None
    if scope is not None and os.fspath(dest) in scope:
        scope.pop(os.fspath(dest))[0].close()  # replaced unread: stop its workers, close its files
    bounds = _row_ranges(columns, n)
    with ExitStack() as stack:
        fh = stack.enter_context(open_text(dest, "w"))
        fh.write(",".join(header) + "\n")
        if len(bounds) == 2:
            fh.writelines(csvrows.format_rows(columns, 0, n))
            return
        copies = [stack.enter_context(_worker_rows(columns, lo, hi))
                  for lo, hi in zip(bounds, bounds[1:])]
        held = stack.pop_all()
    if fh is not dest:  # a file opened here: append the workers' bytes under its text layer
        fh.flush()
        fh = fh.buffer
    if scope is None:
        _join(held, fh, copies)
    else:
        scope[os.fspath(dest)] = (held, fh, copies)


def _join(stack: ExitStack, fh, copies) -> None:
    """Wait for each worker in order and append its text to ``fh``, a
    binary file or a text stream, then close ``stack``: the workers, their
    files and the file opened from a path, if any. A worker that fails
    raises OSError."""
    with stack:
        for copy in copies:
            copy(fh)


@contextmanager
def deferred_tables():
    """A scope in which ``write_csv`` hands a table bound for a path to its
    workers and returns; the tables are joined in the order written when the
    scope exits. If a join fails or the scope is left by an exception, every
    table not joined yet has its workers stopped and waited for and its files
    closed. A scope holds for the thread that opened it."""
    pending: dict = {}
    token = _PENDING.set(pending)
    try:
        yield
        for key in list(pending):
            _join(*pending.pop(key))
    finally:
        _PENDING.reset(token)
        with ExitStack() as rest:
            for stack, _, _ in pending.values():
                rest.push(stack)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_ranges(columns, n: int) -> list[int]:
    """Bounds of the row ranges ``write_csv`` formats in parallel; ``[0, n]``
    for one range."""
    k = min(_usable_cpus(), n * len(columns) // CSV_CELLS_PER_RANGE)
    if k < 2 or not all(isinstance(c, np.ndarray) and c.dtype in _WORKER_CODES
                        for c in columns):
        return [0, n]
    return [n * i // k for i in range(k + 1)]


@contextmanager
def _worker_rows(columns, lo: int, hi: int):
    """Start a worker that formats rows ``[lo, hi)`` of ``columns`` into an
    unlinked temporary file: a thread of this process (``_thread_rows``) for
    at least ``CSV_CELLS_FOR_NUMPY`` cells, else a worker process
    (``_process_rows``). Yields ``copy(fh)``, which waits for the worker and
    appends its text to ``fh``, a binary file or a text stream. A worker
    still running on exit is stopped and waited for."""
    start = _thread_rows if (hi - lo) * len(columns) >= CSV_CELLS_FOR_NUMPY else _process_rows
    with tempfile.TemporaryFile() as rows_out, start(columns, lo, hi, rows_out) as wait:
        del columns  # the worker holds what it reads: a deferred join must not keep the rest

        def copy(fh) -> None:
            wait()
            rows_out.seek(0)
            if not isinstance(fh, io.TextIOBase):
                shutil.copyfileobj(rows_out, fh)
                return
            for chunk in iter(lambda: rows_out.read(1 << 20), b""):
                fh.write(chunk.decode("ascii"))

        yield copy


@contextmanager
def _process_rows(columns, lo: int, hi: int, rows_out):
    """Run ``csvrows`` as a worker process on rows ``[lo, hi)``, writing to
    ``rows_out``. Yields ``wait()``, which raises OSError if the worker
    failed; a worker still running on exit is killed and waited for."""
    import subprocess  # here, not at the top: it adds ~4 ms to every CLI start

    codes = "".join(_WORKER_CODES[c.dtype] for c in columns)
    with tempfile.TemporaryFile() as rows_in:
        rows_in.writelines(np.ascontiguousarray(c[lo:hi]) for c in columns)
        del columns  # the worker has its rows: a deferred join must not keep them alive
        rows_in.seek(0)
        with subprocess.Popen([*_WORKER, codes, str(hi - lo)], stdin=rows_in,
                              stdout=rows_out, stderr=subprocess.PIPE) as proc:

            def wait() -> None:
                _, err = proc.communicate()
                if proc.returncode:
                    raise OSError(f"CSV worker for rows {lo}-{hi} exited with code "
                                  f"{proc.returncode}: {err.decode(errors='replace').strip()}")

            try:
                yield wait
            finally:
                proc.kill()  # no-op once it has been waited for
                proc.wait()


@contextmanager
def _thread_rows(columns, lo: int, hi: int, rows_out):
    """Format rows ``[lo, hi)`` into ``rows_out`` with ``floattext`` on a
    thread, which reads a read-only column as it is and a copy of a writable
    one, under ``np.errstate(all="raise")``. Yields ``wait()``, which raises
    OSError if the thread failed; on exit the thread stops after its current
    block and is waited for."""
    import threading  # here, not at the top: only a range this large needs them
    from . import floattext

    rows = [c[lo:hi] if _read_only(c) else c[lo:hi].copy() for c in columns]
    del columns
    stop = threading.Event()
    failed = []

    def run() -> None:
        try:
            with np.errstate(all="raise"):
                for block in floattext.format_rows(rows, 0, hi - lo):
                    if stop.is_set():
                        return
                    rows_out.write(block)
        except Exception as exc:  # wait() raises it as OSError in the caller's thread
            failed.append(exc)

    thread = threading.Thread(target=run, name=f"{__name__} rows {lo}-{hi}")
    thread.start()

    def wait() -> None:
        thread.join()
        if failed:
            raise OSError(f"CSV worker for rows {lo}-{hi} failed: "
                          f"{type(failed[0]).__name__}: {failed[0]}")

    try:
        yield wait
    finally:
        stop.set()
        thread.join()


def _read_only(a) -> bool:
    """Whether no array can write into ``a``'s memory: ``a`` and every array
    it is a view of are read-only, and the last of them owns its memory."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def read_csv(source, select):
    """Read a header row and numeric data rows into columns.

    ``source`` is a path or an open text stream (see ``open_text``).
    ``select(header)`` gets the stripped header cells and returns the indices
    of the columns to read, the timestamp column first. Returns ``(ts, data,
    line_of)``: int64 timestamps, a float64 array of the other columns, one
    row per data row, and ``line_of(k)``, the file line of data row ``k``. A
    timestamp is read by numpy's integer parser, so it must be an integer
    literal in the int64 range (``3600.0``, ``1e3`` and ``0x10`` are not). A
    row the reader rejects is a DataError naming its file line.
    """
    with open_text(source, "r") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty input: no header row") from None
        except csv.Error as exc:
            raise DataError(f"malformed header: {exc}") from None
        cols = select([h.strip() for h in header])

        first_line = reader.line_num + 1
        blank = []  # positions after the header of the skipped whitespace-only lines
        # Positions of the lines handed to the reader, counted past the
        # header: the next one is one past the line a reader error stopped on.
        position = itertools.count()

        def data_lines():
            for i, line in zip(position, fh):
                if line.isspace():
                    blank.append(i)
                    continue
                if not line.isascii():  # an O(1) flag test on a str
                    _check_ascii_timestamp(line, cols[0], first_line + i)
                yield line

        def line_of(k: int) -> int:
            """File line of data row ``k``: each skipped line at or before it moves it down."""
            for b in blank:
                if b <= k:
                    k += 1
            return first_line + k

        rows = data_lines()
        first = next(rows, None)
        if first is None:
            raise DataError("no data rows in input")
        try:
            data = np.loadtxt(itertools.chain((first,), rows), delimiter=",", usecols=cols,
                              ndmin=1, comments=None, quotechar='"',
                              dtype=[("ts", np.int64), ("v", np.float64, (len(cols) - 1,))])
        except DataError:
            raise
        except ValueError as exc:
            # numpy counts data rows from 0 in a conversion error ("at row R,
            # column C") and from 1 in a column-count error ("at row R with N columns").
            # An embedded newline (a lone "\r" inside a line of a text stream)
            # is named by no row: it is on the line the reader stopped on.
            text = str(exc)
            found = _NUMPY_ROW.search(text)
            if found is None:
                raise DataError(f"malformed row at line {first_line + next(position) - 1}: "
                                f"{text}") from None
            row = int(found[1]) if found[2] else int(found[1]) - 1
            raise DataError(f"malformed row at line {line_of(row)}: "
                            f"{text[:found.start()]}{text[found.end(1):]}") from None

    return data["ts"], data["v"], line_of


def _check_ascii_timestamp(line: str, col: int, lineno: int) -> None:
    """Reject a data line whose timestamp field holds a non-ASCII character
    before numpy's integer parser sees it: that parser indexes a character
    table with the code point, and one far above U+FFFF can crash the
    process (numpy 2.4)."""
    try:
        cells = next(csv.reader([line]))
    except csv.Error as exc:
        raise DataError(f"malformed row at line {lineno}: {exc}") from None
    if len(cells) > col and not cells[col].isascii():
        raise DataError(f"malformed row at line {lineno}: timestamp {cells[col]!r} "
                        f"is not an integer literal")


def write_manifest(outdir: str, command: str, config: dict,
                   inputs: list[str], seeds: list[int], artifacts: list[str]) -> str:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "config": config,
        "inputs": {os.path.basename(p): sha256_file(p) for p in inputs},
        "seeds": seeds,
        "artifacts": {os.path.basename(p): sha256_file(p) for p in artifacts},
    }
    path = os.path.join(outdir, "manifest.json")
    write_json(manifest, path)
    return path


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def svg_line_chart(curves, path: str, title: str = "", width: int = 900,
                   height: int = 420) -> None:
    """Minimal deterministic multi-line chart: one polyline per labeled curve.

    ``curves`` holds ``(label, xs, ys)`` triples; xs and ys are sequences of
    numbers (lists or numpy arrays) of one length. The title and the labels
    are escaped for XML."""
    from html import escape  # here, not at the top: it adds ~3 ms to every CLI start

    margin = 60
    curves = [(label, np.asarray(xs, np.float64), np.asarray(ys, np.float64))
              for label, xs, ys in curves]
    drawn = [(xs, ys) for _, xs, ys in curves if xs.size]
    if not drawn:
        raise ValueError("nothing to plot")
    # numpy's min and max, unlike Python's, return a NaN wherever it stands,
    # so the bounds do not depend on the order of the curves.
    x_lo = float(np.min([xs.min() for xs, _ in drawn]))
    x_hi = float(np.max([xs.max() for xs, _ in drawn]))
    y_lo = float(np.min([ys.min() for _, ys in drawn]))
    y_hi = float(np.max([ys.max() for _, ys in drawn]))
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="16">'
        f'{escape(title, quote=False)}</text>',
        f'<text x="{margin}" y="{height - margin + 18}" font-size="11">{_fmt(x_lo)}</text>',
        f'<text x="{width - margin}" y="{height - margin + 18}" text-anchor="end" '
        f'font-size="11">{_fmt(x_hi)}</text>',
        f'<text x="{margin - 6}" y="{height - margin}" text-anchor="end" '
        f'font-size="11">{_fmt(y_lo)}</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" text-anchor="end" '
        f'font-size="11">{_fmt(y_hi)}</text>',
    ]
    with open_text(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
        for k, (label, xs, ys) in enumerate(curves):
            color = PALETTE[k % len(PALETTE)]
            # Pixel coordinates. The operation order is part of the output: a
            # reordered expression can round a point to other text.
            px = margin + (xs - x_lo) / x_span * (width - 2 * margin)
            py = height - margin - (ys - y_lo) / y_span * (height - 2 * margin)
            fh.write('<polyline points="')
            _write_points(fh, px, py)
            fh.write(f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
                     f'<text x="{width - margin + 4}" y="{margin + 16 * k + 12}" '
                     f'font-size="12" fill="{color}">{escape(label, quote=False)}</text>\n')
        fh.write("</svg>\n")


def _write_points(fh, px, py) -> None:
    """Write the ``"%.2f,%.2f"`` text of each point, separated by spaces, to
    the text stream ``fh``, one block of ``floattext.BLOCK_CELLS`` cells at a
    time."""
    from . import floattext  # here, not at the top: it adds ~5 ms to every CLI start

    step = floattext.BLOCK_CELLS // 2
    for lo in range(0, px.size, step):
        cells = floattext.fixed2_fields(np.stack((px[lo:lo + step], py[lo:lo + step]), 1).ravel())
        pairs = cells.reshape(-1, 2, cells.shape[1])
        space = np.full((len(pairs), 1), ord(" "), np.uint8)
        if lo == 0:
            space[0] = 0  # a padding byte: no separator before the first point
        comma = np.full((len(pairs), 1), ord(","), np.uint8)
        text = np.concatenate((space, pairs[:, 0], comma, pairs[:, 1]), axis=1)
        fh.write(text[text != 0].tobytes().decode("ascii"))
