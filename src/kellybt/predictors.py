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

The simulators and the estimator compute on arrays and return lists of the
records below, built in one ``map``. The Gaussian simulator draws standard
normals in blocks and scales them as ``mu + sigma * z``: that is the stream
scalar ``rng.normal(mu, sigma)`` calls would produce, value for value, so
the rejection walk over it picks the same probabilities.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .artifacts import open_text, write_csv
from .candles import CandleSeries, DataError
from .features import LabelSet

P_CLIP_LO = 0.01
P_CLIP_HI = 0.99
AB_FLOOR = 0.001


@dataclass(frozen=True)
class DirectionPrediction:
    """Probability of an upward move over the horizon; q = 1 - p_up is implied."""

    timestamp: int
    p_up: float


@dataclass(frozen=True)
class ScenarioEstimate:
    """Predicted fractional rise (a) given an up market and fall magnitude (b)
    given a down market; both strictly positive."""

    timestamp: int
    a: float
    b: float


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


def _predictions(labels: LabelSet, p_up: list[float]) -> list[DirectionPrediction]:
    return list(map(DirectionPrediction, labels.timestamps.tolist(), p_up))


def simulate_balanced(labels: LabelSet, seed: int, hit_rate: float = 0.6,
                      p_const: float = 0.6) -> list[DirectionPrediction]:
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
    return _predictions(labels, np.where(up, p_const, 1.0 - p_const).tolist())


def simulate_optimal(labels: LabelSet, p_long: float = 0.8,
                     p_short: float = 0.2) -> list[DirectionPrediction]:
    """Always-correct simulator: p_up fixed at p_long on up labels and p_short
    on down labels."""
    _check_labels(labels)
    if not 0.5 < p_long < 1 or not 0 < p_short < 0.5:
        raise ValueError(f"need p_short < 0.5 < p_long, got {p_short}, {p_long}")
    return _predictions(labels, np.where(labels.direction > 0, p_long, p_short).tolist())


def _standard_normals(rng: np.random.Generator, block: int):
    """The generator's standard normal stream, drawn ``block`` values at a time."""
    while True:
        yield from rng.standard_normal(block).tolist()


def simulate_gaussian(labels: LabelSet, seed: int, mu_long: float = 0.6,
                      mu_short: float = 0.4, sigma: float = 0.1,
                      hit_rate: float = 0.6) -> list[DirectionPrediction]:
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
    return _predictions(labels, p_up)


def load_predictions(source, series: CandleSeries | None = None):
    """Read a prediction CSV with columns timestamp,p_up[,a,b].

    Scenario estimates are returned only when both a and b columns exist;
    exactly one of them present is rejected as malformed. When ``series`` is
    given, every timestamp must exist in it. Every rejection is a DataError
    naming the file line; accepted values are finite.
    """
    with open_text(source, "r") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError("empty prediction file") from None
        for col in ("timestamp", "p_up"):
            if col not in header:
                raise DataError(f"prediction file missing column {col!r}")
        has_a, has_b = "a" in header, "b" in header
        if has_a != has_b:
            raise DataError("scenario columns a and b must appear together")
        idx = {name: header.index(name) for name in header}

        preds: list[DirectionPrediction] = []
        ests: list[ScenarioEstimate] = []
        lines: list[int] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                ts = int(float(row[idx["timestamp"]]))
                p = float(row[idx["p_up"]])
                if has_a:
                    a = float(row[idx["a"]])
                    b = float(row[idx["b"]])
            except (ValueError, IndexError, OverflowError) as exc:
                raise DataError(f"malformed prediction row at line {lineno}: {exc}") from None
            if not 0 < p < 1:
                raise DataError(f"line {lineno}: p_up {p} outside (0, 1)")
            p = min(max(p, P_CLIP_LO), P_CLIP_HI)
            preds.append(DirectionPrediction(ts, p))
            if has_a:
                if not (0 < a < math.inf and 0 < b < math.inf):
                    raise DataError(f"line {lineno}: scenario magnitudes must be finite "
                                    f"and > 0, got a={a}, b={b}")
                ests.append(ScenarioEstimate(ts, max(a, AB_FLOOR), max(b, AB_FLOOR)))
            lines.append(lineno)

    if not preds:
        raise DataError("no prediction rows in input")
    order = sorted(range(len(preds)), key=lambda i: preds[i].timestamp)
    preds = [preds[i] for i in order]
    lines = [lines[i] for i in order]
    for k in range(1, len(preds)):
        if preds[k].timestamp == preds[k - 1].timestamp:
            raise DataError(f"line {lines[k]}: duplicate prediction timestamp "
                            f"{preds[k].timestamp}")
    if ests:
        ests = [ests[i] for i in order]
    if series is not None:
        known = set(int(t) for t in series.timestamps)
        for pr, lineno in zip(preds, lines):
            if pr.timestamp not in known:
                raise DataError(f"line {lineno}: prediction timestamp {pr.timestamp} "
                                f"not present in the series")
    return preds, (ests if ests else None)


def estimate_scenarios(series: CandleSeries, horizon: int = 5,
                       window: int = 250) -> list[ScenarioEstimate]:
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
        return []
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
    return list(map(ScenarioEstimate, series.timestamps[window:].tolist(),
                    np.maximum(a, AB_FLOOR).tolist(), np.maximum(-b, AB_FLOOR).tolist()))


def write_predictions_csv(preds: list[DirectionPrediction],
                          ests: list[ScenarioEstimate] | None, path: str) -> None:
    """Write timestamp,p_up[,a,b] rows. With estimates supplied, predictions
    lacking one (estimator warm-up) are omitted, keeping rows loadable."""
    if not ests:
        write_csv(path, ("timestamp", "p_up"),
                  [[p.timestamp for p in preds], [p.p_up for p in preds]])
        return
    by_ts = {e.timestamp: e for e in ests}
    preds = [p for p in preds if p.timestamp in by_ts]
    matched = [by_ts[p.timestamp] for p in preds]
    write_csv(path, ("timestamp", "p_up", "a", "b"),
              [[p.timestamp for p in preds], [p.p_up for p in preds],
               [e.a for e in matched], [e.b for e in matched]])
