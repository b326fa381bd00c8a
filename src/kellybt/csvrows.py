"""CSV row text: the one row formatter, and the worker that runs it on a row range.

``format_rows`` turns rows ``[start, stop)`` of a table's columns into CSV
text, one block of at most ``BLOCK_ROWS`` rows per yielded string: one ``str``
per cell (for a float that is its shortest round-trip text, as ``repr``
gives), ``NA`` for None, ``,`` between cells and ``\\n`` after every row.
``artifacts.write_csv`` calls it for every table it writes.

Run as a script, this module formats one row range for ``write_csv``::

    python -I -S csvrows.py CODES ROWS

It reads ROWS machine values of each column from standard input, one column
after another, typed by the column's ``array`` code in CODES (``d`` float64,
``q`` int64, ``b`` int8), and writes the rows' text to standard output. It
imports only the standard library, so a worker starts without numpy.
"""
import array
import sys

# Rows formatted per yielded string: bounds the text held in memory.
BLOCK_ROWS = 1024


def format_rows(columns, start: int, stop: int):
    """Yield the CSV text of rows ``[start, stop)`` of ``columns``, one block
    at a time. A column is a list, a tuple, or an array whose slices have
    ``tolist`` (numpy, ``array.array``)."""
    for lo in range(start, stop, BLOCK_ROWS):
        cells = []
        for col in columns:
            block = col[lo:min(lo + BLOCK_ROWS, stop)]
            if not isinstance(block, (list, tuple)):
                block = block.tolist()
            cells.append(["NA" if v is None else str(v) for v in block])
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
