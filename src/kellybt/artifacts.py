"""Run manifests, the CSV reader and writers, and deterministic SVG charts.

Every artifact-producing command writes exactly one ``manifest.json`` into
its output directory recording the command, the fully resolved config,
input digests, seeds, and artifact digests, so a run can be reproduced and
verified byte for byte. SVG output embeds no timestamps or randomness.

Every CSV kellybt writes goes through ``write_csv``, which owns the text
format: a header row, one ``str`` per cell (for a float that is its shortest
round-trip text, as ``repr`` gives), ``NA`` for a missing value and ``\n``
line ends. A large numeric table is formatted on every CPU the process may
use, in contiguous row ranges joined in order, so the bytes do not depend on
how many there are.

Every CSV kellybt loads goes through ``read_csv``: the ``csv`` module reads
the header, whitespace-only lines are skipped and numpy's C reader
(``np.loadtxt``) reads the data rows. A bad row is a ``DataError`` naming
its file line.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import re
import sys
import tempfile
from contextlib import ExitStack, contextmanager

import numpy as np

from . import __version__, csvrows

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# Cells a table needs per row range before ``write_csv`` splits it: each range
# but the first goes to a worker process, which costs about 20 ms to start.
CSV_CELLS_PER_RANGE = 100_000

# The numpy dtypes a worker reads, by their ``array`` type code.
_WORKER_CODES = {np.dtype(np.float64): "d", np.dtype(np.int64): "q", np.dtype(np.int8): "b"}

# The worker: a fresh interpreter without site-packages running csvrows.py.
_WORKER = (sys.executable, "-I", "-S", csvrows.__file__)

# Where numpy's loadtxt names the data row in a ValueError.
_NUMPY_ROW = re.compile(r" at row (\d+)(,?)")


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
    path opened with ``newline=""``; only a file opened here is closed here."""
    if not isinstance(dest, (str, bytes, os.PathLike)):
        yield dest
        return
    with open(dest, mode, newline="") as fh:
        yield fh


def write_csv(dest, header, columns) -> None:
    """Write a header row, then one row per index of ``columns``.

    ``dest`` is a path or an open text stream (see ``open_text``).
    ``columns`` holds one sequence (numpy array or list) per header field,
    all of one length, or is empty for a file with no rows. A cell is
    ``str`` of the value (numpy values via ``.tolist()``), or ``NA`` for None.

    When every column is a float64, int64 or int8 numpy array, the rows are
    split into ``k`` contiguous ranges, ``k`` being the smaller of the usable
    CPUs and ``cells // CSV_CELLS_PER_RANGE``: this process formats the first
    while a worker process formats each other one, and their text is appended
    in order. A worker that fails raises OSError.
    """
    n = len(columns[0]) if columns else 0
    if columns and (len(columns) != len(header) or any(len(c) != n for c in columns)):
        raise ValueError(f"need {len(header)} columns of one length for header {header}")
    bounds = _row_ranges(columns, n)
    with open_text(dest, "w") as fh, ExitStack() as stack:
        fh.write(",".join(header) + "\n")
        copies = [stack.enter_context(_worker_rows(columns, lo, hi))
                  for lo, hi in zip(bounds[1:-1], bounds[2:])]
        fh.writelines(csvrows.format_rows(columns, 0, bounds[1]))
        for copy in copies:
            copy(fh)


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
    """Start a worker that formats rows ``[lo, hi)`` of ``columns`` (see
    ``csvrows``) into an unlinked temporary file. Yields ``copy(fh)``, which
    waits for the worker and appends its text to ``fh`` in chunks. A worker
    still running on exit is killed and waited for."""
    import subprocess  # here, not at the top: it adds ~4 ms to every CLI start

    codes = "".join(_WORKER_CODES[c.dtype] for c in columns)
    with tempfile.TemporaryFile() as rows_in, tempfile.TemporaryFile() as rows_out:
        for col in columns:
            rows_in.write(np.ascontiguousarray(col[lo:hi]))
        rows_in.seek(0)
        with subprocess.Popen([*_WORKER, codes, str(hi - lo)], stdin=rows_in,
                              stdout=rows_out, stderr=subprocess.PIPE) as proc:

            def copy(fh) -> None:
                _, err = proc.communicate()
                if proc.returncode:
                    raise OSError(f"CSV worker for rows {lo}-{hi} exited with code "
                                  f"{proc.returncode}: {err.decode(errors='replace').strip()}")
                rows_out.seek(0)
                for chunk in iter(lambda: rows_out.read(1 << 20), b""):
                    fh.write(chunk.decode("ascii"))

            try:
                yield copy
            finally:
                proc.kill()  # no-op once it has been waited for
                proc.wait()


def read_csv(source, select):
    """Read a header row and numeric data rows into columns.

    ``source`` is a path or an open text stream (see ``open_text``).
    ``select(header)`` gets the stripped header cells and returns the indices
    of the columns to read, the timestamp column first. Returns ``(ts, data,
    line_of)``: int64 timestamps (truncated toward zero), a float64 array of
    the other columns, one row per data row, and ``line_of(k)``, the file
    line of data row ``k``. A row the reader rejects, or whose timestamp is
    not a finite 64-bit integer, is a DataError naming its file line.
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
                else:
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
                              ndmin=2, dtype=np.float64, comments=None, quotechar='"')
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

    out_of_range = np.flatnonzero(~(np.abs(data[:, 0]) < 2.0 ** 63))
    if out_of_range.size:
        k = int(out_of_range[0])
        raise DataError(f"malformed row at line {line_of(k)}: timestamp {float(data[k, 0])!r} "
                        f"is not a finite 64-bit integer")
    return data[:, 0].astype(np.int64), data[:, 1:], line_of


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


def svg_line_chart(curves: list[tuple[str, list[float], list[float]]], path: str,
                   title: str = "", width: int = 900, height: int = 420) -> None:
    """Minimal deterministic multi-line chart: one polyline per labeled curve."""
    margin = 60
    xs_all = [x for _, xs, _ in curves for x in xs]
    ys_all = [y for _, _, ys in curves for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{margin}" y="{height - margin + 18}" font-size="11">{_fmt(x_lo)}</text>',
        f'<text x="{width - margin}" y="{height - margin + 18}" text-anchor="end" '
        f'font-size="11">{_fmt(x_hi)}</text>',
        f'<text x="{margin - 6}" y="{height - margin}" text-anchor="end" '
        f'font-size="11">{_fmt(y_lo)}</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" text-anchor="end" '
        f'font-size="11">{_fmt(y_hi)}</text>',
    ]
    for k, (label, xs, ys) in enumerate(curves):
        color = PALETTE[k % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 16 * k + 12}" '
                     f'font-size="12" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
