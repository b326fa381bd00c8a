"""Direction probabilities and dual-scenario price-change estimates.

Three seeded simulators stand in for trained models: a balanced
fixed-probability model with a targeted success rate, an always-correct
model, and a Gaussian-probability model with the same targeted success
rate. Success rates are enforced as exact counts via a seeded shuffle
(round(hit_rate * n) correct directional calls), not i.i.d. coin flips.

Gaussian draws are rejection-sampled onto the predicted side of 0.5:
a prediction's direction is derived from its probability alone, so a
predicted-up entry must carry p_up > 0.5 for the exact-count success
rate to be observable downstream.

Probabilities are clipped to [0.01, 0.99] and scenario magnitudes floored
at 0.001 so Kelly sizing stays finite.

Forecasts travel as two column frames, ``Predictions(timestamps, p_up)`` and
``Scenarios(timestamps, a, b)``, whose constructor is the one check that the
columns are 1-D, of one length, with strictly increasing timestamps.
``load_predictions`` reads a file with ``artifacts.read_csv``, as
``parse_candles`` does, and adds only its own header and value checks.

The Gaussian simulator draws standard normals in blocks and scales them as
``mu + sigma * z``: that is the stream scalar ``rng.normal(mu, sigma)``
calls would produce, value for value, so the rejection walk over it picks
the same probabilities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .artifacts import DataError, read_csv, write_csv
from .candles import CandleSeries, positions
from .features import LabelSet

P_CLIP_LO = 0.01
P_CLIP_HI = 0.99
AB_FLOOR = 0.001


@dataclass(frozen=True, eq=False)
class _Frame:
    """Read-only int64 ``timestamps``, strictly increasing, and float64 columns."""

    timestamps: np.ndarray

    def __post_init__(self):
        for f in fields(self):  # timestamps first, so the others match its shape
            col = np.array(getattr(self, f.name),
                           np.int64 if f.name == "timestamps" else np.float64)
            if col.ndim != 1 or col.shape != np.shape(self.timestamps):
                raise ValueError(f"frame columns must be 1-D and of one length, got "
                                 f"{f.name} of shape {col.shape}")
            col.setflags(write=False)
            object.__setattr__(self, f.name, col)
        if (self.timestamps[1:] <= self.timestamps[:-1]).any():
            raise ValueError("frame timestamps must be strictly increasing")

    def __len__(self) -> int:
        return int(self.timestamps.size)


@dataclass(frozen=True, eq=False)
class Predictions(_Frame):
    """Probability of an upward move over the horizon at each timestamp;
    q = 1 - p_up is implied."""

    p_up: np.ndarray


@dataclass(frozen=True, eq=False)
class Scenarios(_Frame):
    """Predicted fractional rise (a) given an up market and fall magnitude (b)
    given a down market at each timestamp; both strictly positive."""

    a: np.ndarray
    b: np.ndarray


def _assign_correct(n: int, hit_rate: float, rng: np.random.Generator) -> np.ndarray:
    k = int(round(hit_rate * n))
    correct = np.zeros(n, dtype=bool)
    correct[rng.permutation(n)[:k]] = True
    return correct


def _check_labels(labels: LabelSet) -> None:
    if len(labels) == 0:
        raise ValueError("label set is empty")


def _predicted_up(labels: LabelSet, correct: np.ndarray) -> np.ndarray:
    """Whether each prediction calls up: the label's direction where the
    call is correct, the opposite one elsewhere."""
    return np.where(correct, labels.direction > 0, labels.direction < 0)


def simulate_balanced(labels: LabelSet, seed: int, hit_rate: float = 0.6,
                      p_const: float = 0.6) -> Predictions:
    """Fixed-probability simulator: exactly round(hit_rate*n) predictions agree
    with the true label; predicted-up entries carry p_const, predicted-down
    entries carry 1 - p_const."""
    _check_labels(labels)
    if not 0 < hit_rate <= 1:
        raise ValueError(f"hit_rate must be in (0, 1], got {hit_rate}")
    if not 0.5 < p_const < 1:
        raise ValueError(f"p_const must be in (0.5, 1) so direction follows p_up, got {p_const}")
    rng = np.random.default_rng(seed)
    up = _predicted_up(labels, _assign_correct(len(labels), hit_rate, rng))
    return Predictions(labels.timestamps, np.where(up, p_const, 1.0 - p_const))


def simulate_optimal(labels: LabelSet, p_long: float = 0.8,
                     p_short: float = 0.2) -> Predictions:
    """Always-correct simulator: p_up fixed at p_long on up labels and p_short
    on down labels."""
    _check_labels(labels)
    if not 0.5 < p_long < 1 or not 0 < p_short < 0.5:
        raise ValueError(f"need p_short < 0.5 < p_long, got {p_short}, {p_long}")
    return Predictions(labels.timestamps, np.where(labels.direction > 0, p_long, p_short))


def _standard_normals(rng: np.random.Generator, block: int):
    """The generator's standard normal stream, drawn ``block`` values at a time."""
    while True:
        yield from rng.standard_normal(block).tolist()


def simulate_gaussian(labels: LabelSet, seed: int, mu_long: float = 0.6,
                      mu_short: float = 0.4, sigma: float = 0.1,
                      hit_rate: float = 0.6) -> Predictions:
    """Gaussian-probability simulator with the balanced model's exact-count
    correctness assignment. Each probability is a Normal(mu, sigma) draw
    truncated to the predicted side of 0.5 by rejection and clipped into
    [P_CLIP_LO, P_CLIP_HI]."""
    _check_labels(labels)
    if not 0 < mu_short < 0.5 < mu_long < 1:
        raise ValueError(f"need 0 < mu_short < 0.5 < mu_long < 1, got {mu_short}, {mu_long}")
    if not 0 < sigma < math.inf:  # negated so NaN fails too
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    if not 0 < hit_rate <= 1:
        raise ValueError(f"hit_rate must be in (0, 1], got {hit_rate}")
    rng = np.random.default_rng(seed)
    n = len(labels)
    up = _predicted_up(labels, _assign_correct(n, hit_rate, rng))
    z = _standard_normals(rng, n)
    p_up = []
    for is_up in up.tolist():
        if is_up:
            for x in z:
                v = mu_long + sigma * x
                if v > 0.5:
                    p_up.append(min(v, P_CLIP_HI))
                    break
        else:
            for x in z:
                v = mu_short + sigma * x
                if v < 0.5:
                    p_up.append(max(v, P_CLIP_LO))
                    break
    return Predictions(labels.timestamps, p_up)


def _prediction_columns(header: list[str]) -> list[int]:
    """Indices of timestamp, p_up and, when both are present, a and b."""
    names = ["timestamp", "p_up"] + [c for c in ("a", "b") if c in header]
    for col in names[:2]:
        if col not in header:
            raise DataError(f"prediction file missing column {col!r}")
    if len(names) == 3:
        raise DataError("scenario columns a and b must appear together")
    return [header.index(name) for name in names]


def load_predictions(source, series: CandleSeries | None = None):
    """Read a prediction CSV with columns timestamp,p_up[,a,b] into a
    ``(Predictions, Scenarios | None)`` pair sorted by timestamp.

    Scenarios are returned only when both a and b columns exist; exactly one
    of them present is rejected as malformed. When ``series`` is given,
    every timestamp must exist in it. Every rejection is a DataError naming
    the file line; accepted values are finite.
    """
    ts, data, line_of = read_csv(source, _prediction_columns)
    p, ab = data[:, 0], data[:, 1:]
    bad_p = ~((p > 0) & (p < 1))
    bad = np.flatnonzero(bad_p | ~((ab > 0) & (ab < math.inf)).all(axis=1))
    if bad.size:
        k = int(bad[0])
        if bad_p[k]:
            raise DataError(f"line {line_of(k)}: p_up {float(p[k])} outside (0, 1)")
        raise DataError(f"line {line_of(k)}: scenario magnitudes must be finite "
                        f"and > 0, got a={float(ab[k, 0])}, b={float(ab[k, 1])}")

    order = np.argsort(ts, kind="stable")
    timestamps = ts[order]
    repeated = np.flatnonzero(timestamps[1:] == timestamps[:-1])
    if repeated.size:
        k = int(repeated[0]) + 1
        raise DataError(f"line {line_of(int(order[k]))}: duplicate prediction timestamp "
                        f"{timestamps[k]}")
    if series is not None:
        _, found = positions(series.timestamps, timestamps)
        if not found.all():
            k = int(np.argmin(found))
            raise DataError(f"line {line_of(int(order[k]))}: prediction timestamp "
                            f"{timestamps[k]} not present in the series")
    return (Predictions(timestamps, np.clip(p[order], P_CLIP_LO, P_CLIP_HI)),
            Scenarios(timestamps, *np.maximum(ab[order].T, AB_FLOOR)) if ab.size else None)


def estimate_scenarios(series: CandleSeries, horizon: int = 5,
                       window: int = 250) -> Scenarios:
    """Causal trailing-window scenario estimates.

    At each index t >= window, a is the mean of the positive horizon-forward
    returns whose outcomes are fully realized by t (entries in
    [t-window, t-horizon]) and b is the magnitude of the mean of the negative
    ones; one-sided histories fall back to the floor.
    """
    if window < 10 * horizon:
        raise ValueError(f"window {window} must be >= 10 * horizon ({10 * horizon})")
    n = len(series)
    if n <= window:
        return Scenarios(series.timestamps[:0], [], [])
    c = series.close
    r = (c[horizon:] - c[:-horizon]) / c[:-horizon]
    count = window - horizon + 1
    pos = np.where(r > 0, r, 0.0)
    neg = np.where(r < 0, r, 0.0)
    pos_sum = sliding_window_view(pos, count).sum(axis=1)
    neg_sum = sliding_window_view(neg, count).sum(axis=1)
    pos_cnt = sliding_window_view((r > 0).astype(np.float64), count).sum(axis=1)
    neg_cnt = sliding_window_view((r < 0).astype(np.float64), count).sum(axis=1)

    # Window k holds the returns realized by t = k + window, for t in [window, n).
    a = np.divide(pos_sum, pos_cnt, out=np.full(pos_sum.size, AB_FLOOR), where=pos_cnt > 0)
    b = np.divide(neg_sum, neg_cnt, out=np.full(neg_sum.size, -AB_FLOOR), where=neg_cnt > 0)
    return Scenarios(series.timestamps[window:], np.maximum(a, AB_FLOOR),
                     np.maximum(-b, AB_FLOOR))


def write_predictions_csv(preds: Predictions, ests: Scenarios | None, path: str) -> None:
    """Write timestamp,p_up[,a,b] rows. With scenarios supplied, predictions
    lacking one (estimator warm-up) are omitted, keeping rows loadable."""
    if not ests:
        write_csv(path, ("timestamp", "p_up"), [preds.timestamps, preds.p_up])
        return
    pos, found = positions(ests.timestamps, preds.timestamps)
    pos = pos[found]
    write_csv(path, ("timestamp", "p_up", "a", "b"),
              [preds.timestamps[found], preds.p_up[found], ests.a[pos], ests.b[pos]])
