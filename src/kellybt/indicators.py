"""Technical indicators over candle series, evaluated in batch.

``compute_indicator`` returns one full-length float64 column aligned to the
series' timestamps; warm-up entries are NaN, never zero-filled.
Division-by-zero conventions:

- RSI with zero average loss -> 100
- Williams %R with window high == window low -> NaN for that bar
- CMF with any high == low bar in the window, or zero window volume -> NaN
- CCI with zero mean deviation -> 0
- PPO with a zero slow EMA -> NaN (unreachable for positive prices)
- CMO with zero summed movement -> 0
- EFI ratio form with zero current volume -> NaN

EFI ships in two variants: EFI_RATIO (period price change times period
volume change, divided by current volume) and EFI_STANDARD (EMA of
one-bar price change times volume). Plain "EFI" selects EFI_RATIO.

TRIX is reported in percent (one-bar rate of change of the triple EMA,
times 100), consistent with ROC and PPO.

Each kind is declared once, in ``KINDS``: its number of periods and its one
arithmetic kernel, a batch function over plain high/low/close/volume arrays.
A kernel returns only the values of the series' last bars, from the first
bar its kind defines; ``compute_indicator`` alone pads the warm-up before
them with NaN.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .candles import CandleSeries, horizon_return

_ALIASES = {"EFI": "EFI_RATIO", "WILLIAMSR": "WILLIAMS_R", "%R": "WILLIAMS_R"}


def _period(p) -> int:
    """``p`` as an int; a bool, a non-number or a fractional number is rejected."""
    if isinstance(p, bool) or not (isinstance(p, (int, np.integer))
                                   or isinstance(p, float) and p.is_integer()):
        raise ValueError(f"periods must be integers, got {p!r}")
    return int(p)


@dataclass(frozen=True)
class IndicatorSpec:
    """An indicator kind plus its period(s). MACD/PPO take (fast, slow)."""

    kind: str
    periods: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise ValueError(f"indicator kind must be a string, got {self.kind!r}")
        kind = _ALIASES.get(self.kind.upper(), self.kind.upper())
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "periods", tuple(_period(p) for p in self.periods))
        if kind not in KINDS:
            raise ValueError(f"unknown indicator kind {self.kind!r}")
        arity = KINDS[kind][0]
        if len(self.periods) != arity:
            raise ValueError(f"{kind} takes {arity} period(s), got {self.periods}")
        if any(p < 1 for p in self.periods):
            raise ValueError(f"periods must be >= 1, got {self.periods}")
        if kind in ("MACD", "PPO") and self.periods[0] >= self.periods[1]:
            raise ValueError(f"{kind} needs fast < slow, got {self.periods}")

    @property
    def name(self) -> str:
        return "_".join([self.kind] + [str(p) for p in self.periods])


# Windows per block of a window sum. 8,192 measured fastest on a 2-CPU x86-64
# with 2 MiB of L2 cache a core: 2,048, 4,096 and whole columns were slower.
_WINDOW_BLOCK = 8192


def _window_sums(x: np.ndarray, n: int, center=None) -> np.ndarray:
    """Per run of n consecutive values of x, their sum, or with ``center`` the
    sum of ``|value - center[i]|`` over run i; none when x is shorter than n.

    Each sum has the bits of numpy's ``.sum(axis=1)`` over the windows
    ``sliding_window_view(x, n)`` (or over their absolute deviations): the n
    shifted views of x are added in numpy's order for a row of n values
    (``_pairwise_sum``), ``_WINDOW_BLOCK`` windows at a time, instead of one
    reduction per window. Deviations are taken 8 rows at a time, so the
    temporaries do not grow with n."""
    out = np.empty(max(x.size - n + 1, 0))
    shifted = sliding_window_view(x, out.size)  # row j: value j of every window
    for lo in range(0, out.size, _WINDOW_BLOCK):
        block = shifted[:, lo:lo + _WINDOW_BLOCK]
        if center is None:
            rows = block.__getitem__
        else:
            def rows(j, block=block, mean=center[lo:lo + _WINDOW_BLOCK]):
                dev = block[j] - mean
                return np.abs(dev, out=dev)
        out[lo:lo + _WINDOW_BLOCK] = _pairwise_sum(rows, 0, n)
    return out


def _pairwise_sum(rows, start: int, count: int) -> np.ndarray:
    """The sum of rows ``start`` to ``start + count - 1``, where ``rows(j)``
    is row j and ``rows(slice)`` those rows, in the order of numpy's
    ``pairwise_sum`` loop: one by one below 8 rows, in 8 running sums up to
    128, else the two halves split at a multiple of 8.

    numpy puts a row's sum onto the identity 0.0, which turns a sum of only
    -0.0 into 0.0 and changes no other bit; each leaf starts from ``+ 0.0``,
    which does the same."""
    if count > 128:
        half = count // 2 - count // 2 % 8
        return _pairwise_sum(rows, start, half) + _pairwise_sum(rows, start + half, count - half)
    stop = start + count
    if count < 8:
        total = rows(start) + 0.0
        for j in range(start + 1, stop):
            total += rows(j)
        return total
    sums = rows(slice(start, start + 8)) + 0.0  # sum k adds rows k, k + 8, ... in turn
    tail = stop - count % 8
    for j in range(start + 8, tail, 8):
        sums += rows(slice(j, j + 8))
    pairs = sums[0::2] + sums[1::2]
    quads = pairs[0::2] + pairs[1::2]
    total = quads[0] + quads[1]  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for j in range(tail, stop):
        total += rows(j)
    return total


def _window_extremes(x: np.ndarray, n: int, extreme) -> np.ndarray:
    """Per run of n consecutive values of x, ``extreme.reduce`` of it, with
    ``extreme`` np.maximum or np.minimum; none when x is shorter than n.

    The extreme runs forward and backward within blocks of n (van Herk 1992;
    Gil and Werman 1993), and a window, the end of one block and the start of
    the next, takes one value of each: three comparisons a value whatever n.
    An extreme rounds nothing and spreads a NaN as ``reduce`` does, so the
    values are those of ``.max/.min(axis=1)`` over the windows."""
    if x.size < n:
        return np.empty(0)
    flat = np.empty(-(-x.size // n) * n)
    flat[:x.size] = x
    flat[x.size:] = x[-1]  # padding: no window reads it
    forward = flat.reshape(-1, n)
    backward = forward.copy()
    for j in range(1, n):
        extreme(forward[:, j - 1], forward[:, j], out=forward[:, j])
        extreme(backward[:, n - j], backward[:, n - j - 1], out=backward[:, n - j - 1])
    return extreme(backward.reshape(-1)[:x.size - n + 1], flat[n - 1:x.size])


def _ema_array(x: np.ndarray, n: int) -> np.ndarray:
    """EMA with alpha = 2/(n+1), seeded by the SMA of the first n values: its
    values at x's last x.size - n + 1 entries, none when x is shorter than n."""
    out = np.empty(max(x.size - n + 1, 0))
    if out.size:
        alpha = 2.0 / (n + 1.0)
        one_minus = 1.0 - alpha
        acc = out[0] = float(np.mean(x[:n]))
        tail = []
        for v in x[n:].tolist():
            acc = alpha * v + one_minus * acc
            tail.append(acc)
        out[1:] = tail
    return out


def _guarded_ratio(num, den, on_zero):
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    return np.where(den == 0, on_zero, ratio)


# Batch kernels take plain high/low/close/volume arrays plus the period(s);
# a series too short for the kind yields no values.


def _trix(h, l, c, v, n: int) -> np.ndarray:
    e = _ema_array(_ema_array(_ema_array(c, n), n), n)
    with np.errstate(invalid="ignore", divide="ignore"):
        return 100.0 * ((e[1:] - e[:-1]) / e[:-1])


def _macd(h, l, c, v, fast: int, slow: int) -> np.ndarray:
    fast_ema, slow_ema = _ema_array(c, fast), _ema_array(c, slow)
    return fast_ema[fast_ema.size - slow_ema.size:] - slow_ema


def _ppo(h, l, c, v, fast: int, slow: int) -> np.ndarray:
    fast_ema, slow_ema = _ema_array(c, fast), _ema_array(c, slow)
    num = fast_ema[fast_ema.size - slow_ema.size:] - slow_ema
    return _guarded_ratio(100.0 * num, slow_ema, np.nan)


def _roc(h, l, c, v, n: int) -> np.ndarray:
    return 100.0 * horizon_return(c, n)


def _efi_ratio(h, l, c, v, n: int) -> np.ndarray:
    num = (c[n:] - c[:-n]) * (v[n:] - v[:-n])
    return _guarded_ratio(num, v[n:], np.nan)


def _efi_standard(h, l, c, v, n: int) -> np.ndarray:
    return _ema_array((c[1:] - c[:-1]) * v[1:], n)


def _gain_loss(close: np.ndarray):
    d = close[1:] - close[:-1]
    return np.where(d > 0, d, 0.0), np.where(d < 0, -d, 0.0)


def _cmo(h, l, c, v, n: int) -> np.ndarray:
    gains, losses = _gain_loss(c)
    p = _window_sums(gains, n)
    neg = _window_sums(losses, n)
    return _guarded_ratio(100.0 * (p - neg), p + neg, 0.0)


def _rsi(h, l, c, v, n: int) -> np.ndarray:
    gains, losses = _gain_loss(c)
    avg_gain = _window_sums(gains, n) / n
    avg_loss = _window_sums(losses, n) / n
    # Zero average loss: rs is inf, and 100 - 100 / (1 + inf) is exactly 100.
    return 100.0 - 100.0 / (1.0 + _guarded_ratio(avg_gain, avg_loss, np.inf))


def _cci(h, l, c, v, n: int) -> np.ndarray:
    tp = (h + l + c) / 3.0
    m = _window_sums(tp, n) / n
    md = _window_sums(tp, n, center=m) / n
    return _guarded_ratio(tp[n - 1:] - m, 0.015 * md, 0.0)


def _williams_r(h, l, c, v, n: int) -> np.ndarray:
    hi = _window_extremes(h, n, np.maximum)
    lo = _window_extremes(l, n, np.minimum)
    return _guarded_ratio(hi - c[n - 1:], hi - lo, np.nan) * (-100.0)


def _cmf(h, l, c, v, n: int) -> np.ndarray:
    mfv = _guarded_ratio((c - l) - (h - c), h - l, np.nan) * v
    return _guarded_ratio(_window_sums(mfv, n), _window_sums(v, n), np.nan)


# Each kind's number of periods and its kernel.
KINDS = {
    "TRIX": (1, _trix),
    "MACD": (2, _macd),
    "PPO": (2, _ppo),
    "ROC": (1, _roc),
    "EFI_RATIO": (1, _efi_ratio),
    "EFI_STANDARD": (1, _efi_standard),
    "CMO": (1, _cmo),
    "RSI": (1, _rsi),
    "CCI": (1, _cci),
    "WILLIAMS_R": (1, _williams_r),
    "CMF": (1, _cmf),
}


def compute_indicator(series: CandleSeries, spec: IndicatorSpec) -> np.ndarray:
    """Evaluate one indicator over a whole series: a float64 column aligned
    to ``series.timestamps``, NaN where the value is undefined.

    The kernel's values fill the column's end; the warm-up before them is
    NaN, and too-short input yields an all-NaN column rather than an error.
    """
    tail = KINDS[spec.kind][1](series.high, series.low, series.close, series.volume,
                               *spec.periods)
    out = np.full(len(series), np.nan)
    out[out.size - tail.size:] = tail
    return out
