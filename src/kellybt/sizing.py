"""Position sizing: Kelly criterion, fractional Kelly, Gaussian bet sizing.

``decide`` sizes one bet and holds the only copy of the sizing formulas;
``kelly_fraction`` and ``gaussian_bet_size`` check their arguments and read
``decide``'s raw fraction. ``decide`` takes plain values, already matched by
timestamp: p, the (a, b) pair, the policy.

The Kelly policy sizes with the classical risk/reward form

    f* = p/a - q/b

where p is the up-move probability, q = 1 - p, a the fractional gain in an
up market and b the fractional loss magnitude in a down market. Note that
for a != b this form is NOT the maximizer of the expected log growth
g(f) = p*ln(1 + a f) + q*ln(1 - b f); the exact maximizer is

    argmax g = p/b - q/a

exposed as ``log_optimal_fraction``. The two coincide when a == b. The
trading policies size with ``p/a - q/b``; the log-growth optimum is
provided for analysis.

Gaussian bet sizing maps the deviation of the predicted probability from a
baseline through the standard normal CDF: m = 2*Phi(z) - 1 with
z = (p - expected)/sqrt(p(1-p)). The short side mirrors the formula on
q = 1 - p so that bearish predictions produce short bets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

POLICY_NONE = "NONE"
POLICY_KELLY = "KELLY"
POLICY_GAUSSIAN = "GAUSSIAN"

SIDE_LONG = "LONG"
SIDE_SHORT = "SHORT"
SIDE_FLAT = "FLAT"

_SQRT2 = math.sqrt(2.0)


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the C library erf (accurate to ~1e-16)."""
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def _check_pab(p: float, a: float, b: float) -> None:
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if not (a > 0 and b > 0):  # negated so NaN fails too
        raise ValueError(f"scenario magnitudes must be > 0, got a={a}, b={b}")


def log_optimal_fraction(p: float, a: float, b: float) -> float:
    """Exact maximizer of p*ln(1 + a f) + q*ln(1 - b f) over (-1/a, 1/b)."""
    _check_pab(p, a, b)
    return p / b - (1.0 - p) / a


@dataclass(frozen=True)
class SizingPolicy:
    """How to turn (p, a, b) into a signed bankroll fraction.

    kind NONE bets the full modifier on sign(p_up - 0.5); KELLY scales the
    Kelly fraction by ``kelly_fraction`` (1 = full Kelly, 0.5 = half Kelly)
    before the leverage clamp; GAUSSIAN uses the normal-CDF bet size. The
    constant ``modifier`` multiplies every position last.
    """

    kind: str = POLICY_KELLY
    kelly_fraction: float = 1.0
    max_leverage: float = 5.0
    expected: float = 0.5
    modifier: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kind", self.kind.upper())
        if self.kind not in (POLICY_NONE, POLICY_KELLY, POLICY_GAUSSIAN):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not 0 < self.kelly_fraction <= 1:
            raise ValueError(f"kelly_fraction must be in (0, 1], got {self.kelly_fraction}")
        if not 0 < self.max_leverage < math.inf:  # negated so NaN fails too
            raise ValueError(f"max_leverage must be finite and > 0, got {self.max_leverage}")
        if not 0 < self.expected < 1:
            raise ValueError(f"expected must be in (0, 1), got {self.expected}")
        if not 0 <= self.modifier < math.inf:
            raise ValueError(f"modifier must be finite and >= 0, got {self.modifier}")
        if self.max_leverage * self.modifier == math.inf:  # bounds every |fraction|
            raise ValueError(f"max_leverage {self.max_leverage} times modifier "
                             f"{self.modifier} must be finite")

    @property
    def label(self) -> str:
        return self.kind.lower()


class BetDecision(NamedTuple):
    raw_fraction: float
    fraction: float
    side: str


def decide(p: float, scenario: tuple[float, float], policy: SizingPolicy) -> BetDecision:
    """Size one bet from the up probability ``p`` and the ``(a, b)`` scenario,
    which only KELLY reads. Composition order: fractional-Kelly scaling, then
    the leverage clamp, then the constant modifier. The clamp keeps a NaN
    (subnormal a and b make the Kelly fraction inf - inf) as NaN.

    The formulas are written out here, once, and a call that succeeds makes
    no further Python call: ``decide`` runs once per bet."""
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    kind = policy.kind
    if kind == POLICY_KELLY:
        a, b = scenario
        if not (a > 0 and b > 0):  # negated so NaN fails too; _check_pab names the fault
            _check_pab(p, a, b)
        raw = p / a - (1.0 - p) / b
        scaled = policy.kelly_fraction * raw
    elif kind == POLICY_GAUSSIAN:
        expected = policy.expected
        short = p <= expected
        x = 1.0 - p if short else p  # the short side mirrors the formula on q
        if expected < x < 1.0:
            z = (x - expected) / math.sqrt(x * (1.0 - x))
            raw = 2.0 * (0.5 * (1.0 + math.erf(z / _SQRT2))) - 1.0  # 2 Phi(z) - 1
            if short:
                raw = -raw
        else:  # flat, or the limit -1 where p below ~5.6e-17 rounds q to 1 (mirror of p -> 1)
            raw = -1.0 if x == 1.0 else 0.0
        scaled = raw
    else:
        raw = scaled = 1.0 if p > 0.5 else (-1.0 if p < 0.5 else 0.0)
    cap = policy.max_leverage
    clamped = cap if scaled > cap else (-cap if scaled < -cap else scaled)
    fraction = clamped * policy.modifier
    side = SIDE_LONG if fraction > 0 else (SIDE_SHORT if fraction < 0 else SIDE_FLAT)
    return tuple.__new__(BetDecision, (raw, fraction, side))


_FULL_KELLY = SizingPolicy(POLICY_KELLY)


def kelly_fraction(p: float, a: float, b: float) -> float:
    """Classical risk/reward bet fraction p/a - q/b (signed; > 1 means leverage).
    ``decide`` checks p, then a and b, with ``_check_pab``'s messages."""
    return decide(p, (a, b), _FULL_KELLY).raw_fraction


def gaussian_bet_size(p_up: float, expected: float = 0.5) -> float:
    """Signed bet size in [-1, 1] from the probability's deviation from
    ``expected``; symmetric on q = 1 - p_up for the short side."""
    if not 0 < p_up < 1:
        raise ValueError(f"p_up must be in (0, 1), got {p_up}")
    policy = SizingPolicy(POLICY_GAUSSIAN, expected=expected)  # checks expected
    return decide(p_up, (1.0, 1.0), policy).raw_fraction  # GAUSSIAN reads no (a, b)
