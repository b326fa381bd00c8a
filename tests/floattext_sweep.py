"""Compare ``floattext.format_rows`` with ``csvrows.format_rows`` on many values.

    PYTHONPATH=src python tests/floattext_sweep.py [VALUES] [SEED]

Formats VALUES floats (default 10,000,000) from the families below, in
chunks, as rows of four float64 columns and one int64 column of random bits,
with both formatters, and exits 1 at the first chunk whose bytes differ,
naming the first value that differs. pytest does not collect this file;
``test_floattext.py`` runs a small derandomized sample of the same families.

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

from kellybt import csvrows, floattext

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
                           f"floattext {gc!r}, csvrows {wc!r}"
    return "texts differ in length"


def main(values: int = 10_000_000, seed: int = 0) -> int:
    rng = np.random.default_rng(seed)
    done = 0
    while done < values:
        size = -(-min(CHUNK, values - done) // COLUMNS) * COLUMNS
        x = chunk(rng, size)
        ints = rng.integers(0, 2**64, size // COLUMNS, dtype=np.uint64).view(np.int64)
        columns = [x[j::COLUMNS] for j in range(COLUMNS)] + [ints]
        got = b"".join(floattext.format_rows(columns, 0, size // COLUMNS))
        want = "".join(csvrows.format_rows(columns, 0, size // COLUMNS)).encode()
        if got != want:
            print(f"mismatch after {done} values: {first_difference(x, ints, got, want)}")
            return 1
        done += size
        print(f"{done} values match", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
