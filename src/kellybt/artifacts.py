"""Run manifests, the CSV reader and writers, and deterministic SVG charts.

Every artifact-producing command writes exactly one ``manifest.json`` into
its output directory recording the command, the fully resolved config,
input digests, seeds, and artifact digests, so a run can be reproduced and
verified byte for byte. SVG output embeds no timestamps or randomness.
``svg_line_chart`` streams each polyline to its file: ``floattext.format_points``
yields the ``"%.2f"`` text of its points a block at a time, and each block is
written as soon as it is built, so the chart's text is never held whole.

Every CSV kellybt writes goes through ``write_csv``, which takes a path and
owns the text format: a header row, one ``str`` per cell (a float's shortest
round-trip text, as ``repr`` gives), ``NA`` for a missing value and ``\n``
line ends, in UTF-8. ``floattext.format_rows`` formats every table of numpy
float64, int64, int8 and str columns; a few standard-library lines format any
other (the report rows, which hold names and None). A large numpy table is
split into contiguous row ranges, formatted into temporary files on a pool of
``max(1, cpus - 1)`` threads (numpy releases the GIL in its loops) and by the
joining thread, and joined in order, so the bytes do not depend on how many
ranges there are. Every split table is joined as its ``deferred_tables()``
scope exits: the CLI opens one around each command, so the pool formats a
table while the command goes on computing, and ``write_csv`` called outside a
scope opens its own. The pool belongs to the scope: no thread outlives a
command.

Every CSV kellybt loads goes through ``read_csv``, which takes a path: a
UTF-8 file, with or without a byte-order mark, whose lines end in ``\n``,
``\r\n`` or a lone ``\r``. The ``csv`` module reads the header and every
quoted row (and one with a non-ASCII character), and numpy's C reader
(``np.loadtxt``) reads the data rows, the timestamp with its integer parser,
so a timestamp is an integer literal read exactly. numpy opens a plain file
(ASCII, ``\n`` line ends, no empty line) by its path and reads it in chunks;
any other file, or one numpy rejects, is handed to it a row at a time, with
whitespace-only lines skipped. A bad row is a ``DataError`` naming the file
line it starts on.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import re
import shutil
import tempfile
import threading
from collections.abc import Callable
from contextlib import ExitStack, contextmanager
from contextvars import ContextVar

import numpy as np

from . import __version__

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# Cells a table needs per row range before ``write_csv`` splits it. A range
# costs a temporary file, a copy of its writable columns, a hand-off to the
# pool and a copy into the table: about 0.23 ms, against about 4 ms to format
# 25,000 cells of a timestamp and a float column (2-CPU x86-64, numpy 2.4).
CSV_CELLS_PER_RANGE = 25_000

# The numeric dtypes ``floattext.format_rows`` formats; it also formats str.
_NUMPY_DTYPES = (np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.int8))

# Where numpy's loadtxt names the data row in a ValueError.
_NUMPY_ROW = re.compile(r" at row (\d+)(,?)")

# Bytes ``_load_by_path`` checks at a time (1 MiB chunks, freed, left the
# ``features`` command's max RSS 0.4 MB higher); the UTF-8 byte-order mark;
# and the suffixes numpy's file opener (``np.lib._datasource``) decompresses.
_SCAN_BYTES = 1 << 16
_BOM = b"\xef\xbb\xbf"
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")

# The innermost open ``deferred_tables`` scope of this thread, or None: its
# tables still to join, by path, and the ``submit`` of its pool.
_SCOPE: ContextVar[tuple[dict, Callable] | None] = ContextVar("_SCOPE", default=None)


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


def write_csv(path, header, columns) -> None:
    """Write a header row, then one row per index of ``columns``, to the file
    at ``path`` in UTF-8 (a surrogate escape is written back as its byte).

    ``columns`` holds one sequence (numpy array or list) per header field,
    all of one length, or is empty for a file with no rows. A cell is
    ``str`` of the value (numpy values via ``.tolist()``), or ``NA`` for None.

    ``floattext`` formats a table of float64, int64, int8 or str numpy arrays
    in ``min(usable CPUs, cells // CSV_CELLS_PER_RANGE)`` row ranges: on this
    thread if that is below 2, else queued on the pool of the open
    ``deferred_tables`` scope and joined at its exit (a later write to the
    path replaces the table unjoined). With no scope open, the call runs in a
    scope of its own, so the table is complete when it returns. A table that
    fails to format raises OSError.
    """
    scope = _SCOPE.get()
    if scope is None:
        with deferred_tables():
            return write_csv(path, header, columns)
    n = len(columns[0]) if columns else 0
    if columns and (len(columns) != len(header) or any(len(c) != n for c in columns)):
        raise ValueError(f"need {len(header)} columns of one length for header {header}")
    pending, submit = scope
    key = os.fspath(path)
    if key in pending:
        pending.pop(key)[0].close()  # replaced unread: stop its ranges, close its files
    with ExitStack() as stack:
        fh = stack.enter_context(open(path, "wb"))
        fh.write((",".join(header) + "\n").encode("utf-8", "surrogateescape"))
        if not all(isinstance(c, np.ndarray) and (c.dtype in _NUMPY_DTYPES or c.dtype.kind == "U")
                   for c in columns):
            cells = [["NA" if v is None else str(v)
                      for v in (c.tolist() if isinstance(c, np.ndarray) else c)] for c in columns]
            text = "\n".join(map(",".join, zip(*cells))) + "\n" if n else ""
            fh.write(text.encode("utf-8", "surrogateescape"))
            return
        bounds = _row_ranges(columns, n)
        if len(bounds) == 2:
            _format(columns, 0, n, fh.write)
            return
        ranges = [stack.enter_context(_row_range(submit, columns, lo, hi))
                  for lo, hi in zip(bounds, bounds[1:])]
        pending[key] = (stack.pop_all(), fh, ranges)


def _format(rows, lo: int, hi: int, write, stop=None) -> None:
    """Pass the ``floattext`` text of ``rows``, rows ``[lo, hi)`` of a table,
    to ``write`` a block at a time, under ``np.errstate(all="raise")``, until
    ``stop`` is set. A failure raises OSError naming the rows."""
    from . import floattext  # here, not at the top: it adds ~2.5 ms to every CLI start

    try:
        with np.errstate(all="raise"):
            for block in floattext.format_rows(rows, 0, hi - lo):
                if stop is not None and stop.is_set():
                    return
                write(block)
    except Exception as exc:
        raise OSError(f"CSV worker for rows {lo}-{hi} failed: "
                      f"{type(exc).__name__}: {exc}") from exc


@contextmanager
def deferred_tables():
    """A scope in which ``write_csv`` hands a split table to the scope's pool
    of ``max(1, cpus - 1)`` threads, started as work is submitted, and
    returns. At exit each table is joined in the order written: this thread
    formats each range no pool thread has started (so at most ``cpus``
    ranges format at once), then appends each range's text in order and
    closes the file; then the pool is shut down. If a join fails or the
    scope is left by an exception, every table not joined yet has its queued
    ranges cancelled, its running ones stopped and waited for, and its files
    closed. A scope holds for the thread that opened it."""
    pending: dict = {}
    executor = None

    def submit(fn):
        nonlocal executor
        if executor is None:
            # here, not at the top: only a split table needs it
            from concurrent.futures import ThreadPoolExecutor

            executor = ThreadPoolExecutor(max(1, _usable_cpus() - 1),
                                          thread_name_prefix=__name__)
        return executor.submit(fn)

    def shutdown() -> None:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    token = _SCOPE.set((pending, submit))
    try:
        yield
        for key in list(pending):
            stack, fh, ranges = pending.pop(key)
            with stack:
                for claim, _ in ranges:
                    claim()
                for _, copy in ranges:
                    copy(fh)
    finally:
        _SCOPE.reset(token)
        with ExitStack() as rest:
            rest.callback(shutdown)  # first in, so it runs after every range has stopped
            for stack, _, _ in pending.values():
                rest.push(stack)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_ranges(columns, n: int) -> list[int]:
    """Bounds of the row ranges of a numpy table; ``[0, n]`` for one range."""
    k = min(_usable_cpus(), n * len(columns) // CSV_CELLS_PER_RANGE)
    return [n * i // k for i in range(k + 1)] if k >= 2 else [0, n]


@contextmanager
def _row_range(submit, columns, lo: int, hi: int):
    """Queue rows ``[lo, hi)`` of ``columns`` with a scope's ``submit``, to be
    formatted (``_format``) into an unlinked temporary file; it reads a
    read-only column as it is and a copy of a writable one. Yields ``(claim, copy)``:
    ``claim()`` formats the range on the calling thread if no pool thread has
    started it, and ``copy(fh)`` waits for it and appends its text to the
    binary file ``fh``, raising OSError if it failed. On exit a queued range
    is cancelled, and a running one stops after its block and is waited for."""
    rows = [c[lo:hi] if _read_only(c) else c[lo:hi].copy() for c in columns]
    del columns  # a deferred join must not keep the rest alive
    stop = threading.Event()
    failed = []
    with tempfile.TemporaryFile() as rows_out:

        def run() -> None:
            try:
                _format(rows, lo, hi, rows_out.write, stop)
            except OSError as exc:  # copy() raises it in the joining thread
                failed.append(exc)

        future = submit(run)

        def claim() -> None:
            if future.cancel():
                run()

        def copy(fh) -> None:
            if not future.cancelled():  # a claimed range ran in claim()
                future.result()
            if failed:
                raise failed[0]
            rows_out.seek(0)
            shutil.copyfileobj(rows_out, fh)

        try:
            yield claim, copy
        finally:
            stop.set()
            if not future.cancel():
                future.result()


def _read_only(a) -> bool:
    """Whether ``a`` and every array it is a view of are read-only, and the
    last of them owns its memory. ``write_csv`` then reads a column's rows
    without a copy, and ``candles.Frame`` holds it as it is.

    It follows ``base`` up from ``a`` only, so it cannot see a writable view
    taken from the owner before the owner was flagged: after ``x =
    np.zeros(3); v = x[:]; x.setflags(write=False)``, ``_read_only(x)`` is
    True, yet ``v[0] = 1`` still writes into ``x``. Flag an array read-only
    before any view of it is handed out."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def read_csv(path, select):
    """Read the header row and numeric data rows of the file at ``path``.

    The file is read as UTF-8 whatever the locale, a byte that is not UTF-8
    reaching the parser as a surrogate escape, which fails its row; a leading
    byte-order mark is skipped, and ``\n``, ``\r\n`` and a lone ``\r`` each
    end a line.
    ``select(header)`` gets the stripped header cells and returns the indices
    of the columns to read, the timestamp column first. Returns ``(ts, data,
    line_of)``: int64 timestamps, a float64 array of the other columns, one
    row per data row, and ``line_of(k)``, the file line of data row ``k``. A
    timestamp is read by numpy's integer parser, so it must be an integer
    literal in the int64 range (``3600.0``, ``1e3`` and ``0x10`` are not). A
    row the reader rejects is a DataError naming its file line.

    numpy reads a plain file by its path (``_load_by_path``); any other file
    goes through the line path below, which skips whitespace-only lines and
    hands numpy one item per row. A line with no ``"`` and only ASCII is a
    row as it is; the ``csv`` module reads the header and every other row
    (``_csv_row``), on across the lines a quoted field spans, and stops at
    a field past its limit (131,072 characters). A rejected row is named by
    the file line it starts on.
    """
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty input: no header row") from None
        except csv.Error as exc:
            raise DataError(f"malformed header: {exc}") from None
        cols = select([h.strip() for h in header])
        options = dict(delimiter=",", usecols=cols, ndmin=1, comments=None, quotechar='"',
                       dtype=[("ts", np.int64), ("v", np.float64, (len(cols) - 1,))])

        first_line = reader.line_num + 1
        data = _load_by_path(path, reader.line_num, options)
        if data is not None:
            return data["ts"], data["v"], lambda k: first_line + k

        starts = []  # the file line of each row handed to numpy
        lines = enumerate(fh, first_line)

        def data_rows():
            for number, line in lines:
                if line.isspace():
                    continue
                starts.append(number)
                if '"' in line or not line.isascii():  # isascii: an O(1) flag test on a str
                    line = _csv_row(line, lines, cols[0], number)
                yield line

        rows = data_rows()
        first = next(rows, None)
        if first is None:
            raise DataError("no data rows in input")
        try:
            data = np.loadtxt(itertools.chain((first,), rows), **options)
        except DataError:
            raise
        except ValueError as exc:
            # numpy counts data rows from 0 in a conversion error ("at row R,
            # column C") and from 1 in a column-count error ("at row R with N columns").
            # An error that names no row (numpy's "embedded newline", which
            # items split at row ends should not give) is put on the row read last.
            text = str(exc)
            found = _NUMPY_ROW.search(text)
            if found is None:
                raise DataError(f"malformed row at line {starts[-1]}: {text}") from None
            row = int(found[1]) if found[2] else int(found[1]) - 1
            raise DataError(f"malformed row at line {starts[row]}: "
                            f"{text[:found.start()]}{text[found.end(1):]}") from None

    return data["ts"], data["v"], starts.__getitem__


def _csv_row(line: str, lines, col: int, number: int) -> str:
    """The text of the row that starts with ``line``, file line ``number``:
    ``line`` joined to the lines the ``csv`` module takes from ``lines``, an
    iterator of ``(file line, text)`` pairs, to close a quoted field. A
    DataError when the module rejects the row, or when its timestamp cell,
    ``col``, holds a non-ASCII character: numpy's integer parser indexes a
    character table with the code point, and one far above U+FFFF can crash
    the process (numpy 2.4)."""
    raw = [line]

    def more():
        for _, text in lines:
            raw.append(text)
            yield text

    try:
        cells = next(csv.reader(itertools.chain((line,), more())))
    except csv.Error as exc:
        raise DataError(f"malformed row at line {number}: {exc}") from None
    if len(cells) > col and not cells[col].isascii():
        raise DataError(f"malformed row at line {number}: timestamp {cells[col]!r} "
                        f"is not an integer literal")
    return "".join(raw)


def _load_by_path(path, header_lines: int, options: dict):
    """``np.loadtxt`` of the data rows of the file at ``path``, which numpy
    opens by name and reads in chunks; None when the line path must read it.

    The file is checked ``_SCAN_BYTES`` at a time first. It goes to the line
    path when a byte after an optional byte-order mark is not ASCII (numpy's
    integer parser can crash on a code point far above U+FFFF) or is ``\r``,
    a line after the first is empty (numpy skips it unseen), no data line
    follows the header, or numpy would decompress it by its name. So does a
    file numpy rejects, for the line path to name the line, or reads into a
    row count other than its data lines (a quoted field across lines)."""
    name = os.path.abspath(os.fsdecode(path))  # absolute: numpy takes "scheme://host" for a URL
    if os.path.splitext(name)[1] in _COMPRESSED_SUFFIXES:
        return None
    lines = 0
    last = False  # whether the byte before the chunk is "\n"
    with open(name, "rb") as fh:
        if fh.read(len(_BOM)) != _BOM:
            fh.seek(0)
        while chunk := fh.read(_SCAN_BYTES):
            if not chunk.isascii() or b"\r" in chunk:
                return None
            ends = np.frombuffer(chunk, np.uint8) == ord("\n")
            if ends[0] and last or np.count_nonzero(ends[1:] & ends[:-1]):  # an empty line
                return None
            lines += np.count_nonzero(ends)
            last = ends[-1]
    data_lines = lines + (not last) - header_lines
    if data_lines < 1:
        return None
    try:
        data = np.loadtxt(name, skiprows=header_lines, encoding="utf-8", **options)
    except ValueError:
        return None
    return data if len(data) == data_lines else None


def write_manifest(outdir: str, command: str, config: dict,
                   inputs: dict[str, str], seeds: list[int], artifacts: list[str]) -> str:
    """Write ``manifest.json``; ``inputs`` maps an option to the path it
    named, and that input's digest is keyed by the option, as in ``config``."""
    manifest = {
        "command": command,
        "tool_version": __version__,
        "config": config,
        "inputs": {key: sha256_file(p) for key, p in inputs.items()},
        "seeds": seeds,
        "artifacts": {os.path.basename(p): sha256_file(p) for p in artifacts},
    }
    path = os.path.join(outdir, "manifest.json")
    write_json(manifest, path)
    return path


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def svg_line_chart(curves, path: str, title: str = "") -> None:
    """Minimal deterministic 900 x 420 chart: one polyline per labeled curve.

    ``curves`` holds ``(label, xs, ys)`` triples; xs and ys are sequences of
    numbers (lists or numpy arrays) of one length. The title and the labels
    are escaped for XML."""
    from html import escape  # here, not at the top: it adds ~3 ms to every CLI start

    from . import floattext  # here, not at the top: it adds ~2.5 ms to every CLI start

    width, height, margin = 900, 420, 60
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
    with open(path, "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write("\n".join(parts) + "\n")
        for k, (label, xs, ys) in enumerate(curves):
            color = PALETTE[k % len(PALETTE)]
            # Pixel coordinates. The operation order is part of the output: a
            # reordered expression can round a point to other text.
            px = margin + (xs - x_lo) / x_span * (width - 2 * margin)
            py = height - margin - (ys - y_lo) / y_span * (height - 2 * margin)
            fh.write('<polyline points="')
            fh.writelines(block.decode("ascii") for block in floattext.format_points(px, py))
            fh.write(f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
                     f'<text x="{width - margin + 4}" y="{margin + 16 * k + 12}" '
                     f'font-size="12" fill="{color}">{escape(label, quote=False)}</text>\n')
        fh.write("</svg>\n")

