"""CSV row and SVG point text from numpy arrays, a block of cells at a time:
the one formatter of kellybt's numpy tables and charts.

``format_rows(columns, start, stop)`` yields rows ``[start, stop)`` of
float64, int64, int8 and str columns as ASCII bytes, one block of at most
``BLOCK_CELLS`` cells at a time. A cell's text is what ``str`` gives: a
float's shortest round-trip digits (``repr``), an integer's decimal digits.
``artifacts.write_csv`` runs it under ``np.errstate(all="raise")``, as its
arithmetic warns of no floating-point condition. Its reference is
``format_rows`` in ``tests/oracles.py``, the standard library's ``str``.
``format_points(px, py)`` yields the text of a chart's points in blocks of
the same size; the field layout below stays in this module.

A float takes the fast path when it is finite and 1e-4 <= |x| < 1e16, the
range in which ``repr`` writes no exponent. With ``e`` its decimal exponent,
``y = |x| * 10**(16 - e)`` lies in [1e16, 1e17) and is carried exactly as a
Dekker product ``hi + lo`` (``10**k`` is an exact double for k <= 22). The
15-, 16- and 17-digit roundings of ``y`` are read from its integer part and
its fraction. The shortest of them that lies strictly inside half of
``np.spacing(x) * 10**k`` of ``y`` reads back as ``x`` and is the nearest
such text of its length, which is what ``repr`` writes (Steele and White
1990; Gay 1990; Adams, Ryu, 2018). ``repr`` formats the rest: a cell within
``_SURE`` of a rounding tie or of the interval's edge, an exact power of two
(its interval is narrower below), and a cell off the fast path. Integers are
exact, the magnitude of an int64 in a uint64. One loop, ``_groups``, splits
every integer into the 4-digit groups that a table reads as ASCII digits: a
float's 16 after its first, or as many as a block's largest integer needs.

A cell's text is built in a fixed-width field in which zero bytes are padding:
the integer part with its sign is a window of digits ending at the decimal
point, the fraction a window starting after it; a string is its ASCII bytes,
padded with zeros to the longest. Dropping every zero byte of a block's rows
leaves their text.

``fixed2_fields`` gives the ``"%.2f"`` text of each float64, for the points
of an SVG chart, in fields of 4-byte words: the sign, one word per 4-digit
group of the largest integer part among them (leading zeros as padding), and
the point with two decimals. For |x| < 1e13, ``y = |x| * 100`` is carried
exactly as a Dekker product ``hi + lo``. As ``hi < 2**50``, its spacing is at
most 1/8, so a half is exact and ``|lo|``, at most half the spacing, cannot
carry y across a half ``hi`` is not on: ``np.rint(hi)`` is y's nearest
integer. On a half, y lies above it when ``lo > 0``, below when ``lo < 0``,
and is a tie, which ``"%.2f"`` rounds to even as ``np.rint`` does, when ``lo``
is 0. The sign is x's sign bit, so ``-0.0`` and ``-0.001`` give ``-0.00`` as
``"%.2f"`` does. ``"%.2f"`` itself formats NaN, infinities and |x| >= 1e13;
that text can be 304 bytes long (``1e300``), and the fields are widened to
the longest.
"""
import numpy as np

# Cells formatted per yielded block: bounds the arrays held in memory (about
# 125 bytes a cell while a block is built). Of 4,096 to 65,536, this
# size formatted a 50,000 x 33 feature matrix fastest (by about 10 %).
BLOCK_CELLS = 16_384

# A float's field: sign and integer part (18 bytes), point (1) and fraction
# (20). ``repr``'s widest float text, "-1.7976931348623157e+308", takes 24.
_FLOAT_WIDTH = 39

# A fast-path decision closer than this to its edge goes to ``repr``; the
# arithmetic that reaches it errs by less than 1e-13.
_SURE = 1e-9

_ZERO, _MINUS, _POINT = 48, 45, 46

# "0000" ... "9999": four ASCII digits in each uint32, and how many of them
# are trailing zeros ("0000" has four).
_FOURS = np.arange(10_000)
_DIGITS4 = (np.stack([_FOURS // 1000, _FOURS // 100 % 10, _FOURS // 10 % 10, _FOURS % 10],
                     axis=1) + _ZERO).astype(np.uint8).view(np.uint32).ravel()
_TRAILING0 = sum((_FOURS % 10**i == 0).astype(np.int64) for i in (1, 2, 3)) + (_FOURS == 0)

# Row k: k ones, then zeros; keeps the first k bytes of a window.
_KEEP = (np.arange(20) < np.arange(21)[:, None]).astype(np.uint8)

# Entry q: a mask of the bytes of a 4-digit group that are digits when the
# number from that group up is min(q, 1000): as many as q has, none for 0.
_SIZES = sum((np.arange(1001) >= 10**i).astype(np.int64) for i in range(4))
_LEADING = (np.arange(4) >= 4 - _SIZES[:, None]).astype(np.uint8) * np.uint8(255)
_LEADING = _LEADING.view(np.uint32).ravel()

# Entry c: ".", then the two digits of c.
_CENTS = np.zeros((100, 4), np.uint8)
_CENTS[:, 0] = _POINT
_CENTS[:, 1:3] = _DIGITS4.view(np.uint8).reshape(-1, 4)[:100, 2:]
_CENTS = _CENTS.view(np.uint32).ravel()

# 10**k for k <= 22, exact, and the halves of its Dekker split.
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLIT = 134217729.0  # 2**27 + 1


def _split(a):
    t = _SPLIT * a
    high = t - (t - a)
    return high, a - high


_POW10_HI, _POW10_LO = _split(_POW10)

# The doubles nearest 1e-4 ... 1e16. Each lies at or above its power of ten,
# so |x| >= _DECADES[i] means |x| >= 10**(i - 4).
_DECADES = np.array([float(f"1e{e}") for e in range(-4, 17)])


def _copy_windows(src, offsets, dest):
    """Copy to each row ``i`` of ``dest`` as many bytes of row ``i`` of
    ``src``, a C-contiguous array, from ``offsets[i]`` on."""
    width = dest.shape[1]
    # Every run of ``width`` bytes of ``src`` as one item, so that a gather
    # copies each window whole.
    windows = np.ndarray((src.size - width + 1,), f"V{width}", src, strides=(1,))
    dest.view(f"V{width}")[:, 0] = windows[np.arange(0, src.size, src.shape[1]) + offsets]


def _groups(rest, count=None):
    """The 4-digit groups of each non-negative integer in ``rest``, most
    significant first: ``count`` of them, or as many as the largest needs."""
    if count is None:
        count = (len(str(rest.max(initial=0))) + 3) // 4
    groups = np.empty((len(rest), count), np.intp)
    for g in range(count - 1, 0, -1):
        rest, groups[:, g] = np.divmod(rest, 10_000)
    groups[:, 0] = rest
    return groups


def _signed_words(neg, mag, spare=0):
    """Each integer of ``mag``, negated where ``neg``, as 4-byte words: the
    sign, its digit groups with leading zeros as padding, ``spare`` unset."""
    groups = _groups(mag)
    # Column g: the integer from group g up, capped at 1000 (``_LEADING``'s index).
    upper = np.minimum(groups, 1000)
    for g in range(1, groups.shape[1]):
        np.minimum(upper[:, g] + 1000 * upper[:, g - 1], 1000, out=upper[:, g])
    np.maximum(upper[:, -1], 1, out=upper[:, -1])
    words = np.empty((len(mag), 1 + groups.shape[1] + spare), np.uint32)
    words[:, 0] = neg * np.uint32(_MINUS)
    np.bitwise_and(_DIGITS4[groups], _LEADING[upper], out=words[:, 1:1 + groups.shape[1]])
    return words


def _trailing_zeros(groups):
    """How many of the digits of each row of ``groups`` are trailing zeros."""
    zeros = _TRAILING0[groups[:, -1]]
    tail = groups[:, -1] == 0
    for g in range(groups.shape[1] - 2, -1, -1):
        zeros += tail * _TRAILING0[groups[:, g]]
        tail &= groups[:, g] == 0
    return zeros


def float_fields(x):
    """The ``repr`` text of each float64 of ``x`` as rows of ``_FLOAT_WIDTH``
    bytes, zero bytes being padding. Each whole-block temporary is deleted as
    soon as it is dead, the digit counts are held in bytes, and the fraction's
    window buffer is made only once the integer part's is freed: by
    ``tracemalloc``, a block peaks at about 122 bytes a cell, against 415
    with every temporary kept to the end."""
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e16)  # False for NaN
    ax = np.where(fast, ax, 1.0)  # keeps the arithmetic below finite
    e = np.searchsorted(_DECADES, ax, side="right") - 5
    k = 16 - e
    # y = |x| * 10**k = hi + lo exactly: y in [1e16, 1e17), hi an integer.
    p = _POW10[k]
    hi = ax * p
    a_hi, a_lo = _split(ax)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    del k
    lo = a_lo * p_lo - (((hi - a_hi * p_hi) - a_lo * p_hi) - a_hi * p_lo)
    del a_hi, a_lo, p_hi, p_lo
    whole = np.floor(lo)
    y_int = hi.astype(np.int64) + whole.astype(np.int64)
    del hi
    frac = lo - whole
    del lo, whole
    half = np.spacing(ax) * p * 0.5  # exact: a power of two times 10**k
    del p

    r100 = y_int % 100
    t100 = r100 + frac  # y's distance above the multiple of 100 below it
    up15 = t100 >= 50.0
    dist15 = np.where(up15, 100.0 - t100, t100)
    del t100
    r10 = r100 % 10
    t10 = r10 + frac
    up16 = t10 >= 5.0
    dist16 = np.where(up16, 10.0 - t10, t10)
    # 17 digits always read back: half > 0.55, and they are within 0.5 of y.
    # A rounding inside the interval at 15 digits is inside at 16 too. None
    # rounds up to 1e17: the double nearest each power of ten from 1e-3 to
    # 1e16 lies at or above it, so no smaller double reads back from it.
    in15, in16 = dist15 < half, dist16 < half
    d = np.where(in15, y_int - r100 + 100 * up15,
                 np.where(in16, y_int - r10 + 10 * up16, y_int + (frac >= 0.5)))
    del y_int, r100, r10, up15, up16
    point = e.astype(np.int8) + 1  # digits before the point; 0 or less below 1
    del e

    # A tie at 15 digits is 50 from y, beyond any interval (half < 11.2).
    unsure = ~fast | (ax.view(np.uint64) & ((1 << 52) - 1) == 0)
    del fast, ax
    for gap in (t10 - 5.0, frac - 0.5, dist15 - half, dist16 - half):
        unsure |= np.abs(gap) < _SURE
    del gap, t10, frac, dist15, dist16, half

    lead, rest = np.divmod(d, 10**16)
    del d
    lead = lead.astype(np.uint8) + _ZERO  # the leading digit's ASCII byte
    groups = _groups(rest, 4)
    del rest
    digits = _DIGITS4[groups].view(np.uint8).reshape(len(x), 16)
    # The last of 17 digits is not 0 (else the 16 would be inside), nor is the
    # 16th of 16; only a 15-digit rounding can end in more zeros.
    zeros = in16.astype(np.int8) + in15
    short = np.flatnonzero(in15)
    del in15, in16
    zeros[short] = _trailing_zeros(groups[short])
    del groups, short
    fields = np.empty((len(x), _FLOAT_WIDTH), np.uint8)
    # The integer part ends before the point: a window at offset ``point`` of
    # [pad, sign, 17 digits], or at offset 0 of [sign, "0"] below 1.
    small = point <= 0
    sign = np.signbit(x).view(np.uint8) * np.uint8(_MINUS)
    whole_buf = np.zeros((len(x), 35), np.uint8)
    whole_buf[:, 16] = small * sign
    whole_buf[:, 17] = np.where(small, _ZERO, sign)
    del small, sign
    whole_buf[:, 18] = lead
    whole_buf[:, 19:] = digits
    _copy_windows(whole_buf, np.maximum(point, 0), fields[:, :18])
    del whole_buf
    fields[:, 18] = _POINT
    # The fraction starts after the point: a window at offset 3 + point of
    # ["000", 17 digits], up to the last nonzero digit and at least one digit.
    frac_buf = np.zeros((len(x), 40), np.uint8)
    frac_buf[:, :3] = _ZERO
    frac_buf[:, 3] = lead
    frac_buf[:, 4:20] = digits
    del lead, digits
    _copy_windows(frac_buf, 3 + point, fields[:, 19:])
    del frac_buf
    fields[:, 19:] *= _KEEP[np.maximum(17 - zeros, point + 1) - point]
    del zeros, point

    slow = np.flatnonzero(unsure)
    if slow.size:
        fields[slow] = 0
        texts = [repr(v) for v in x[slow].tolist()]
        fields[slow, :24] = np.array(texts, "S24").view(np.uint8).reshape(-1, 24)
    return fields


def fixed2_fields(x):
    """The ``"%.2f"`` text of each float64 of ``x`` as rows of bytes, zero
    bytes being padding, as wide as the longest text needs."""
    ax = np.abs(x)
    fast = ax < 1e13  # False for NaN
    ax = np.where(fast, ax, 0.0)  # keeps the arithmetic below finite
    # y = |x| * 100 = hi + lo exactly (100 splits as 100 + 0).
    hi = ax * 100.0
    a_hi, a_lo = _split(ax)
    lo = a_lo * 100.0 - (hi - a_hi * 100.0)
    below = np.floor(hi)
    tie = (hi - below == 0.5) & (lo != 0.0)  # on a half, and y off it
    d = np.where(tie, below + (lo > 0.0), np.rint(hi)).astype(np.int64)
    whole = d // 100

    # The signed integer part's words, then the point and 2 decimals.
    words = _signed_words(np.signbit(x), whole, spare=1)
    words[:, -1] = _CENTS[d - 100 * whole]
    fields = words.view(np.uint8)

    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = ["%.2f" % v for v in x[slow].tolist()]
        width = max(fields.shape[1], *map(len, texts))
        fields = np.pad(fields, ((0, 0), (0, width - fields.shape[1])))
        fields[slow] = np.array(texts, f"S{width}").view(np.uint8).reshape(-1, width)
    return fields


def int_fields(v):
    """The decimal text of each int64 of ``v`` as rows of bytes, zero bytes
    being padding, as wide as the largest magnitude needs."""
    neg = v < 0
    mag = v.view(np.uint64)
    mag = np.where(neg, np.uint64(0) - mag, mag)  # |-2**63| fits a uint64
    return _signed_words(neg, mag).view(np.uint8)


def str_fields(s):
    """The ASCII bytes of each str of ``s``, read from its 4-byte code points
    (numpy's cast to bytes takes 70 times as long), as rows of bytes, zero
    bytes being padding; a cell that is not ASCII, or holds a NUL, raises."""
    codes = np.ascontiguousarray(s, s.dtype.newbyteorder("<")).view("<u4")
    codes = codes.reshape(len(s), s.dtype.itemsize // 4)
    if (codes > 127).any() or ((codes[:, :-1] == 0) & (codes[:, 1:] != 0)).any():
        raise ValueError("a str cell is not ASCII, or holds a NUL")
    return codes.astype(np.uint8)


def format_rows(columns, start: int, stop: int):
    """Yield the CSV text of rows ``[start, stop)`` of ``columns``, float64,
    int64, int8 or str numpy arrays, as ASCII bytes, one block at a time."""
    step = max(1, BLOCK_CELLS // max(1, len(columns)))
    floats = [j for j, c in enumerate(columns) if c.dtype == np.float64]
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        fields = [None] * len(columns)
        if floats:
            # All float cells of the block in one call, row by row.
            block = np.stack([columns[j][lo:hi] for j in floats], axis=1).ravel()
            cells = float_fields(block).reshape(hi - lo, len(floats), _FLOAT_WIDTH)
            for i, j in enumerate(floats):
                fields[j] = cells[:, i]
            del block, cells
        for j, c in enumerate(columns):
            if c.dtype.kind == "U":
                fields[j] = str_fields(c[lo:hi])
            elif fields[j] is None:
                fields[j] = int_fields(c[lo:hi].astype(np.int64))
        comma = np.full((hi - lo, 1), ord(","), np.uint8)
        text = np.concatenate([part for f in fields for part in (f, comma)], axis=1)
        del fields
        text[:, -1] = ord("\n")
        yield text[text != 0].tobytes()


def format_points(px, py):
    """Yield the ``"%.2f,%.2f"`` text of each point ``(px[i], py[i])`` of two
    float64 arrays, the points separated by spaces, as ASCII bytes, one block
    of at most ``BLOCK_CELLS`` coordinates at a time."""
    step = BLOCK_CELLS // 2
    for lo in range(0, len(px), step):
        cells = fixed2_fields(np.stack((px[lo:lo + step], py[lo:lo + step]), 1).ravel())
        sep = np.empty((len(cells), 1), np.uint8)
        sep[0::2], sep[1::2] = ord(" "), ord(",")  # before each x, before each y
        if lo == 0:
            sep[0] = 0  # a padding byte: no separator before the first point
        text = np.concatenate((sep, cells), axis=1)
        yield text[text != 0].tobytes()
