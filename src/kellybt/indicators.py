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


def _windows(x: np.ndarray, n: int) -> np.ndarray:
    """Every run of n consecutive values of x, one a row; no rows when x is
    shorter than n."""
    return sliding_window_view(x, n) if x.size >= n else x[:0, None]


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
    p = _windows(gains, n).sum(axis=1)
    neg = _windows(losses, n).sum(axis=1)
    return _guarded_ratio(100.0 * (p - neg), p + neg, 0.0)


def _rsi(h, l, c, v, n: int) -> np.ndarray:
    gains, losses = _gain_loss(c)
    avg_gain = _windows(gains, n).sum(axis=1) / n
    avg_loss = _windows(losses, n).sum(axis=1) / n
    # Zero average loss: rs is inf, and 100 - 100 / (1 + inf) is exactly 100.
    return 100.0 - 100.0 / (1.0 + _guarded_ratio(avg_gain, avg_loss, np.inf))


# Windows per block of CCI's mean absolute deviation.
_CCI_BLOCK_ROWS = 2048


def _cci(h, l, c, v, n: int) -> np.ndarray:
    tp = (h + l + c) / 3.0
    w = _windows(tp, n)
    m = w.mean(axis=1)
    # Mean absolute deviation a block of windows at a time: each row's
    # arithmetic is that of the whole-array expression, without its two
    # (windows, n) temporaries.
    md = np.empty(m.size)
    for start in range(0, m.size, _CCI_BLOCK_ROWS):
        stop = start + _CCI_BLOCK_ROWS
        dev = w[start:stop] - m[start:stop, None]
        md[start:stop] = np.abs(dev, out=dev).mean(axis=1)
    return _guarded_ratio(tp[n - 1:] - m, 0.015 * md, 0.0)


def _williams_r(h, l, c, v, n: int) -> np.ndarray:
    hi = _windows(h, n).max(axis=1)
    lo = _windows(l, n).min(axis=1)
    return _guarded_ratio(hi - c[n - 1:], hi - lo, np.nan) * (-100.0)


def _cmf(h, l, c, v, n: int) -> np.ndarray:
    mfv = _guarded_ratio((c - l) - (h - c), h - l, np.nan) * v
    num = _windows(mfv, n).sum(axis=1)
    return _guarded_ratio(num, _windows(v, n).sum(axis=1), np.nan)


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
