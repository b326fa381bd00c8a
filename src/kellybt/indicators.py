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


def _first_defined(x: np.ndarray) -> int | None:
    idx = np.flatnonzero(~np.isnan(x))
    return int(idx[0]) if idx.size else None


def _ema_array(x: np.ndarray, n: int) -> np.ndarray:
    """EMA with alpha = 2/(n+1), seeded by the SMA of the first n values."""
    out = np.full(x.size, np.nan)
    s = _first_defined(x)
    if s is None or x.size - s < n:
        return out
    alpha = 2.0 / (n + 1.0)
    one_minus = 1.0 - alpha
    acc = float(np.mean(x[s:s + n]))
    out[s + n - 1] = acc
    tail = []
    for v in x[s + n:].tolist():
        acc = alpha * v + one_minus * acc
        tail.append(acc)
    out[s + n:] = tail
    return out


def _guarded_ratio(num, den, on_zero):
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    return np.where(den == 0, on_zero, ratio)


# Batch kernels take plain high/low/close/volume arrays plus the period(s).


def _trix(h, l, c, v, n: int) -> np.ndarray:
    e = _ema_array(_ema_array(_ema_array(c, n), n), n)
    out = np.full(c.size, np.nan)
    if c.size > 1:
        with np.errstate(invalid="ignore", divide="ignore"):
            out[1:] = 100.0 * ((e[1:] - e[:-1]) / e[:-1])
    return out


def _macd(h, l, c, v, fast: int, slow: int) -> np.ndarray:
    return _ema_array(c, fast) - _ema_array(c, slow)


def _ppo(h, l, c, v, fast: int, slow: int) -> np.ndarray:
    slow_ema = _ema_array(c, slow)
    num = _ema_array(c, fast) - slow_ema
    return _guarded_ratio(100.0 * num, slow_ema, np.nan)


def _roc(h, l, c, v, n: int) -> np.ndarray:
    out = np.full(c.size, np.nan)
    out[n:] = 100.0 * horizon_return(c, n)
    return out


def _efi_ratio(h, l, c, v, n: int) -> np.ndarray:
    out = np.full(c.size, np.nan)
    if c.size > n:
        num = (c[n:] - c[:-n]) * (v[n:] - v[:-n])
        out[n:] = _guarded_ratio(num, v[n:], np.nan)
    return out


def _efi_standard(h, l, c, v, n: int) -> np.ndarray:
    force = np.full(c.size, np.nan)
    if c.size > 1:
        force[1:] = (c[1:] - c[:-1]) * v[1:]
    return _ema_array(force, n)


def _gain_loss(close: np.ndarray):
    d = close[1:] - close[:-1]
    return np.where(d > 0, d, 0.0), np.where(d < 0, -d, 0.0)


def _cmo(h, l, c, v, n: int) -> np.ndarray:
    out = np.full(c.size, np.nan)
    gains, losses = _gain_loss(c)
    if gains.size < n:
        return out
    p = sliding_window_view(gains, n).sum(axis=1)
    neg = sliding_window_view(losses, n).sum(axis=1)
    tot = p + neg
    out[n:] = np.where(tot == 0, 0.0, _guarded_ratio(100.0 * (p - neg), tot, 0.0))
    return out


def _rsi(h, l, c, v, n: int) -> np.ndarray:
    out = np.full(c.size, np.nan)
    gains, losses = _gain_loss(c)
    if gains.size < n:
        return out
    avg_gain = sliding_window_view(gains, n).sum(axis=1) / n
    avg_loss = sliding_window_view(losses, n).sum(axis=1) / n
    rs = _guarded_ratio(avg_gain, avg_loss, np.nan)
    out[n:] = np.where(avg_loss == 0, 100.0, 100.0 - 100.0 / (1.0 + rs))
    return out


# Windows per block of CCI's mean absolute deviation.
_CCI_BLOCK_ROWS = 2048


def _cci(h, l, c, v, n: int) -> np.ndarray:
    out = np.full(c.size, np.nan)
    tp = (h + l + c) / 3.0
    if tp.size < n:
        return out
    w = sliding_window_view(tp, n)
    m = w.mean(axis=1)
    # Mean absolute deviation a block of windows at a time: each row's
    # arithmetic is that of the whole-array expression, without its two
    # (windows, n) temporaries.
    md = np.empty(m.size)
    for start in range(0, m.size, _CCI_BLOCK_ROWS):
        stop = start + _CCI_BLOCK_ROWS
        dev = w[start:stop] - m[start:stop, None]
        md[start:stop] = np.abs(dev, out=dev).mean(axis=1)
    num = tp[n - 1:] - m
    den = 0.015 * md
    out[n - 1:] = np.where(den == 0, 0.0, _guarded_ratio(num, den, 0.0))
    return out


def _williams_r(h, l, c, v, n: int) -> np.ndarray:
    out = np.full(c.size, np.nan)
    if c.size < n:
        return out
    hi = sliding_window_view(h, n).max(axis=1)
    lo = sliding_window_view(l, n).min(axis=1)
    rng = hi - lo
    num = hi - c[n - 1:]
    out[n - 1:] = np.where(rng == 0, np.nan, _guarded_ratio(num, rng, np.nan) * (-100.0))
    return out


def _cmf(h, l, c, v, n: int) -> np.ndarray:
    out = np.full(c.size, np.nan)
    if c.size < n:
        return out
    hl = h - l
    with np.errstate(divide="ignore", invalid="ignore"):
        mfm = ((c - l) - (h - c)) / hl
    mfm = np.where(hl == 0, np.nan, mfm)
    mfv = mfm * v
    num = sliding_window_view(mfv, n).sum(axis=1)
    den = sliding_window_view(v, n).sum(axis=1)
    out[n - 1:] = np.where(den == 0, np.nan, _guarded_ratio(num, den, np.nan))
    return out


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

    Too-short input yields an all-NaN column rather than an error.
    """
    return KINDS[spec.kind][1](series.high, series.low, series.close, series.volume,
                               *spec.periods)
