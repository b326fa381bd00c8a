"""CSV row text: the one row formatter, and the worker that runs it on a row range.

``format_rows`` turns rows ``[start, stop)`` of a table's columns into CSV
text, one block of at most ``BLOCK_ROWS`` rows per yielded string: one ``str``
per cell (for a float that is its shortest round-trip text, as ``repr``
gives), ``NA`` for None, ``,`` between cells and ``\\n`` after every row.
``artifacts.write_csv`` calls it for every table it formats in-process, and it
is the reference for ``floattext``.

Run as a script, this module formats one row range for ``write_csv``::

    python -I -S -W error csvrows.py CODES ROWS

It reads ROWS machine values of each column from standard input, one column
after another, typed by the column's ``array`` code in CODES (``d`` float64,
``q`` int64, ``b`` int8), and writes the rows' text to standard output. It
imports only the standard library, so the worker starts without numpy;
``artifacts`` starts it for a range of fewer than
``artifacts.CSV_CELLS_FOR_NUMPY`` cells and formats a larger one on a thread
with ``floattext.format_rows``, which writes the same bytes. Under ``-W error``
a warning fails the worker, and with it the table.
"""
import array
import sys

# Rows formatted per yielded string: bounds the text held in memory.
BLOCK_ROWS = 1024


def format_rows(columns, start: int, stop: int):
    """Yield the CSV text of rows ``[start, stop)`` of ``columns``, one block
    at a time. A column is a list or a tuple, which may hold None, or an array
    whose slices have ``tolist`` (numpy, ``array.array``), which holds none."""
    for lo in range(start, stop, BLOCK_ROWS):
        cells = []
        for col in columns:
            block = col[lo:min(lo + BLOCK_ROWS, stop)]
            if isinstance(block, (list, tuple)):
                cells.append(["NA" if v is None else str(v) for v in block])
            else:
                cells.append(map(str, block.tolist()))
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _serve(codes: str, rows: str) -> None:
    n = int(rows)
    columns = []
    for code in codes:
        col = array.array(code)
        col.fromfile(sys.stdin.buffer, n)  # EOFError on a short input
        columns.append(col)
    out = sys.stdout.buffer
    for text in format_rows(columns, 0, n):
        out.write(text.encode("ascii"))
    out.flush()


if __name__ == "__main__":
    _serve(*sys.argv[1:])
