"""CSV row text: the one row formatter of the standard library.

``format_rows`` turns rows ``[start, stop)`` of a table's columns into CSV
text, one block of at most ``BLOCK_ROWS`` rows per yielded string: one ``str``
per cell (for a float that is its shortest round-trip text, as ``repr``
gives), ``NA`` for None, ``,`` between cells and ``\\n`` after every row.
``artifacts.write_csv`` calls it for every table it formats as one range, and
it is the reference ``floattext.format_rows``, which formats a split table's
ranges, is tested against.
"""

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

