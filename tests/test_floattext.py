"""``floattext.format_rows``, the numpy row formatter, writes the bytes of
``oracles.format_rows``, its reference: on a small derandomized sample of the
value families that ``floattext_sweep.py`` runs by the million, at the edges
of the kernel's fast path, and across its block boundaries, str columns
among them. ``fixed2_fields``
writes the text of ``"%.2f"``, its reference, on half-cent ties, their
neighbours and the edges of its own fast path. ``float_fields`` holds few
bytes a cell while it builds a block."""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from kellybt import floattext

import floattext_sweep
import oracles
from conftest import traced_peak

EXACT = settings(derandomize=True, database=None, deadline=None, max_examples=5,
                 phases=[Phase.explicit, Phase.generate])


def _texts(columns):
    n = len(columns[0])
    with np.errstate(all="raise"):  # as artifacts.write_csv runs it
        got = b"".join(floattext.format_rows(columns, 0, n))
    return got, "".join(oracles.format_rows(columns, 0, n)).encode()


@pytest.mark.parametrize("family", floattext_sweep.FAMILIES, ids=lambda f: f.__name__)
@EXACT
@given(seed=st.integers(0, 2**32 - 1))
def test_value_families_match_the_reference(family, seed):
    rng = np.random.default_rng(seed)
    x = family(rng, 6000)
    got, want = _texts([x[0::3], x[1::3], x[2::3]])
    assert got == want


# Each side of the fast path's bounds (1e-4 <= |x| < 1e16), of 1 and of the
# mantissa's power-of-two edge, and values whose shortest text has 1, 15, 16
# and 17 digits or a tie between two 17-digit texts.
EDGES = [1e-4, 1e16, 1.0, 2.0**53, 9007199254740993.0, 0.1, 0.3, 1 / 3, 2 / 3, 123.456,
         0.000123456789012345, 9999999999999998.0, 1234567890123456.8, 4.35, 0.5,
         5e-5, 1e15, 1e-3, 100.0, 5e-324, 1.7976931348623157e308, 2.2250738585072014e-308]


def test_fast_path_edges_match_the_reference():
    x = floattext_sweep.with_neighbours(np.array(EDGES))
    got, want = _texts([np.concatenate([x, -x])])
    assert got == want


@pytest.mark.parametrize("block_cells", [1, 7, 64])
def test_blocks_of_mixed_columns_match_the_reference(monkeypatch, block_cells):
    monkeypatch.setattr(floattext, "BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(block_cells)
    n = 100
    columns = [rng.integers(-2**63, 2**63 - 1, n, endpoint=True),
               rng.standard_normal(n),
               rng.choice(np.array([-128, -1, 0, 1, 127], np.int8), n),
               floattext_sweep.random_bits(rng, n),
               rng.choice(np.array(["", "A", "LONG", "AMBIGUOUS", "x y;z", "~!\"'"]), n)]
    columns[0][:2] = [-2**63, 2**63 - 1]
    got, want = _texts(columns)
    assert got == want
    for start, stop in [(0, 0), (3, 50), (99, 100)]:
        with np.errstate(all="raise"):
            got = b"".join(floattext.format_rows(columns, start, stop))
        assert got == "".join(oracles.format_rows(columns, start, stop)).encode()


@pytest.mark.parametrize("cell, error", [("é", "not ASCII"), ("\U0001F600", "not ASCII"),
                                         ("a\0b", "holds a NUL"), ("\0b", "holds a NUL")])
def test_a_str_cell_that_is_not_plain_ascii_raises(cell, error):
    # Its bytes would not be its text: not ASCII, or a NUL read as padding.
    with pytest.raises(ValueError, match=error):
        b"".join(floattext.format_rows([np.array(["ok", cell])], 0, 2))


def test_float_fields_peak_memory_per_cell_is_bounded():
    # Each thread of artifacts' pool holds one block at a time; this bounds
    # what a block holds. With every temporary kept to the end it was 415 to
    # 500 bytes a cell, with each deleted once dead about 165; with the two
    # window buffers made one after the other and the digit counts held in
    # bytes, about 122.
    x = floattext_sweep.chunk(np.random.default_rng(0), floattext.BLOCK_CELLS)
    _, peak = traced_peak(floattext.float_fields, x)
    assert peak / x.size < 135


def test_format_rows_peak_memory_per_cell_is_bounded():
    # One block of a feature table: a timestamp column and 32 float columns
    # of the sweep's families. The block's float cells and fields are freed
    # before its text is masked: about 125 bytes a cell, against 168 with
    # them held to the end of the block.
    rng = np.random.default_rng(0)
    n = floattext.BLOCK_CELLS // 33
    columns = [3600 * np.arange(n)] + [floattext_sweep.chunk(rng, n) for _ in range(32)]

    def drain():
        for _ in floattext.format_rows(columns, 0, n):
            pass

    _, peak = traced_peak(drain)
    assert peak / (33 * n) < 135


# The fast path's bound and 2**52 / 100, above which a half would no longer
# be exact; a subnormal, small values that round to 0.00, and values whose
# "%.2f" text is long (1e300 takes 304 bytes).
FIXED2_EDGES = [1e13, 1e13 - 0.005, 2.0**52 / 100, 2.0**53 / 100, 0.0, 5e-324, 0.001,
                0.004, 0.005, 0.015, 0.125, 2.675, 1e300, 1.7976931348623157e308]


def test_fixed2_fields_match_percent_format():
    rng = np.random.default_rng(0)
    # From 2**53 / 100 on, |x| * 100 rounds to an even integer, and rint would
    # miss its nearest one.
    around = rng.uniform(1e12, 1e14, 500)
    x = np.concatenate([floattext_sweep.half_cents(rng, 3000), np.arange(-600, 601) / 200,
                        floattext_sweep.with_neighbours(np.array(FIXED2_EDGES)), around,
                        rng.uniform(60.0, 840.0, 500), [np.nan, np.inf]])
    x = np.concatenate([x, -x])
    eighths = x[np.abs(x) < 1e13] * 8
    assert (eighths % 2 == 1).sum() > 1000  # odd eighths: exact half cents
    fields = floattext.fixed2_fields(x)
    got = [row[row != 0].tobytes().decode() for row in fields]
    assert got == ["%.2f" % v for v in x.tolist()]
    assert len(got[x.tolist().index(1e300)]) == 304
