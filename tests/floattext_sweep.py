"""Compare ``floattext.format_rows`` with ``oracles.format_rows``, and
``floattext.fixed2_fields`` with ``"%.2f"``, on many values.

    PYTHONPATH=src python tests/floattext_sweep.py [VALUES] [SEED]

Formats VALUES floats (default 10,000,000) from the families below, in
chunks, as rows of four float64 columns and one int64 column of random bits,
with both row formatters (the numpy one under ``np.errstate(all="raise")``,
as ``artifacts.write_csv`` runs it), and the same floats, plus a quarter as
many half-cent ties and their neighbours (``half_cents``), with both
``"%.2f"`` formatters. Exits 1 at the first chunk whose bytes differ, naming the first
value that differs. pytest does not collect this file; ``test_floattext.py``
runs a small derandomized sample of the same families.

Families, in equal shares of each chunk:
- random bit patterns: every exponent, NaN payloads, infinities and
  subnormals, and as many in the binades of [1e-4, 1e16);
- decimals of 15 and 16 significant digits (the most ``repr`` can need
  fewer than 17 for), each with both neighbouring doubles, half of them in
  the range where ``repr`` writes no exponent;
- powers of two and of ten over the whole exponent range, each with both
  neighbours.
"""
import sys

import numpy as np

from kellybt import floattext

import oracles

CHUNK = 1_000_000
COLUMNS = 4


def random_bits(rng, size):
    """Random bit patterns: every other one with its exponent field drawn
    from the binades that meet [1e-4, 1e16), where ``repr`` writes no
    exponent."""
    bits = rng.integers(0, 2**64, size, dtype=np.uint64)
    exponent = rng.integers(1023 - 14, 1023 + 54, size, dtype=np.uint64, endpoint=True)
    fixed = (bits & ~np.uint64(0x7FF << 52)) | (exponent << np.uint64(52))
    bits[::2] = fixed[::2]
    return bits.view(np.float64)


def with_neighbours(x):
    """``x`` and the doubles on each side of each value (past the largest
    double: infinity)."""
    with np.errstate(over="ignore"):
        return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def short_decimals(rng, size):
    """Decimals of 15 and 16 digits, with both neighbours: ``size`` values."""
    count = -(-size // 3)
    digits = rng.choice([15, 16], count)
    mantissa = rng.integers(10 ** (digits - 1), 10**digits, dtype=np.int64)
    # Half in [1e-4, 1e16), half over the whole range of doubles.
    exponent = np.where(rng.random(count) < 0.5,
                        rng.integers(-4, 16, count) - (digits - 1),
                        rng.integers(-323 - digits, 309 - digits))
    signs = np.where(rng.random(count) < 0.5, -1.0, 1.0)
    x = np.array([float(f"{m}e{q}") for m, q in zip(mantissa.tolist(), exponent.tolist())])
    return with_neighbours(x * signs)[:size]


def powers(rng, size):
    """Powers of two and of ten and their neighbours, each sign, whole
    exponent range, in a random order: ``size`` values."""
    base = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                           np.array([float(f"1e{q}") for q in range(-323, 309)])])
    x = with_neighbours(np.concatenate([base, -base]))
    return rng.choice(x, size)


FAMILIES = (random_bits, short_decimals, powers)


def half_cents(rng, size):
    """Values whose product with 100 is a half, or rounds to one: odd
    multiples of 1/8 (the only doubles that are exact half cents) and the
    doubles nearest k/200, below 1e13, each sign, with both neighbours:
    ``size`` values."""
    count = -(-size // 6)
    eighths = np.ldexp(2.0 * rng.integers(0, 4 * 10**13, count) + 1.0, -3)
    near = rng.integers(0, 2 * 10**15, count) / 200
    x = np.concatenate([eighths, near])
    return with_neighbours(np.where(rng.random(x.size) < 0.5, -x, x))[:size]


def chunk(rng, size):
    """``size`` floats, an equal share from each family, shuffled."""
    shares = [size // len(FAMILIES)] * len(FAMILIES)
    shares[0] += size - sum(shares)
    x = np.concatenate([family(rng, share) for family, share in zip(FAMILIES, shares)])
    return rng.permutation(x)


def first_difference(x, ints, got: bytes, want: bytes) -> str:
    """The first cell whose text differs, with both texts."""
    cols = [x[j::COLUMNS] for j in range(COLUMNS)] + [ints]
    for row, (g, w) in enumerate(zip(got.split(b"\n"), want.split(b"\n"))):
        if g != w:
            for j, (gc, wc) in enumerate(zip(g.split(b","), w.split(b","))):
                if gc != wc:
                    v = cols[j][row]
                    return f"row {row} column {j}: {v!r} ({v.tobytes().hex()}): " \
                           f"floattext {gc!r}, oracles {wc!r}"
    return "texts differ in length"


def fixed2_lines(x) -> bytes:
    """``fixed2_fields``'s text of each value of ``x``, one a line, formatted
    a block of ``floattext.BLOCK_CELLS`` values at a time."""
    out = []
    for lo in range(0, x.size, floattext.BLOCK_CELLS):
        fields = floattext.fixed2_fields(x[lo:lo + floattext.BLOCK_CELLS])
        rows = np.concatenate((fields, np.full((len(fields), 1), ord("\n"), np.uint8)), axis=1)
        out.append(rows[rows != 0].tobytes())
    return b"".join(out)


def fixed2_difference(x) -> str | None:
    """The first value of ``x`` whose ``fixed2_fields`` text is not its
    ``"%.2f"`` text, with both texts; None when every one matches."""
    got = fixed2_lines(x)
    want = "".join(map("%.2f\n".__mod__, x.tolist())).encode()
    if got == want:
        return None
    for v, g, w in zip(x.tolist(), got.split(b"\n"), want.split(b"\n")):
        if g != w:
            return f"{v!r} ({np.float64(v).tobytes().hex()}): fixed2_fields {g!r}, '%.2f' {w!r}"
    return "texts differ in length"


def main(values: int = 10_000_000, seed: int = 0) -> int:
    rng = np.random.default_rng(seed)
    done = 0
    while done < values:
        size = -(-min(CHUNK, values - done) // COLUMNS) * COLUMNS
        x = chunk(rng, size)
        ints = rng.integers(0, 2**64, size // COLUMNS, dtype=np.uint64).view(np.int64)
        columns = [x[j::COLUMNS] for j in range(COLUMNS)] + [ints]
        with np.errstate(all="raise"):  # as write_csv runs it
            got = b"".join(floattext.format_rows(columns, 0, size // COLUMNS))
        want = "".join(oracles.format_rows(columns, 0, size // COLUMNS)).encode()
        if got != want:
            print(f"mismatch after {done} values: {first_difference(x, ints, got, want)}")
            return 1
        fixed2 = fixed2_difference(np.concatenate([x, half_cents(rng, size // 4)]))
        if fixed2 is not None:
            print(f"'%.2f' mismatch after {done} values: {fixed2}")
            return 1
        done += size
        print(f"{done} values match", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
