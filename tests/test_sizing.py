import math

import numpy as np
import pytest

from kellybt.sizing import (SizingPolicy, decide, gaussian_bet_size,
                            kelly_fraction, log_optimal_fraction, normal_cdf)

import oracles


def _grid_argmax(p, a, b, points=10_001):
    lo, hi = -1.0 / a, 1.0 / b
    eps = (hi - lo) * 1e-9
    fs = np.linspace(lo + eps, hi - eps, points)
    g = p * np.log1p(a * fs) + (1.0 - p) * np.log1p(-b * fs)
    return float(fs[np.argmax(g)]), g


def _g(p, a, b, f):
    return p * math.log1p(a * f) + (1.0 - p) * math.log1p(-b * f)


def test_worked_example_two_x_leverage():
    assert abs(kelly_fraction(0.6, 0.05, 0.04) - 2.0) <= 1e-12


def test_no_edge_is_flat():
    assert kelly_fraction(0.5, 0.03, 0.03) == 0.0


def test_symmetric_unit_payoff_matches_grid_search():
    for p, want in ((0.8, 0.6), (0.2, -0.6)):
        f = kelly_fraction(p, 1.0, 1.0)
        assert abs(f - want) < 1e-12
        best, _ = _grid_argmax(p, 1.0, 1.0)
        assert abs(best - want) <= 1e-4


def test_sign_coherence():
    rng = np.random.default_rng(0)
    for _ in range(300):
        p = rng.uniform(0.05, 0.95)
        a, b = rng.uniform(0.005, 0.2, size=2)
        f = kelly_fraction(p, a, b)
        if p * b > (1 - p) * a:
            assert f > 0
        elif p * b < (1 - p) * a:
            assert f < 0


def test_log_optimal_zero_derivative_and_grid_dominance():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = rng.uniform(0.05, 0.95)
        a, b = rng.uniform(0.005, 0.2, size=2)
        q = 1.0 - p
        f = log_optimal_fraction(p, a, b)
        assert -1.0 / a < f < 1.0 / b
        deriv = p * a / (1 + a * f) - q * b / (1 - b * f)
        assert abs(deriv) <= 1e-9
        _, g = _grid_argmax(p, a, b)
        assert float(g.max()) <= _g(p, a, b, f) + 1e-10


def test_risk_reward_form_differs_from_log_optimum_when_asymmetric():
    # The two coincide only for a == b; the worked risk/reward example
    # (p=0.6, a=0.05, b=0.04) is NOT the log-growth maximizer.
    f_rr = kelly_fraction(0.6, 0.05, 0.04)
    f_opt = log_optimal_fraction(0.6, 0.05, 0.04)
    assert abs(f_rr - 2.0) <= 1e-12
    assert abs(f_opt - 7.0) <= 1e-12
    assert _g(0.6, 0.05, 0.04, f_opt) > _g(0.6, 0.05, 0.04, f_rr)
    assert abs(kelly_fraction(0.7, 0.03, 0.03) -
               log_optimal_fraction(0.7, 0.03, 0.03)) <= 1e-12


def test_pab_validation():
    for fn in (kelly_fraction, log_optimal_fraction):
        with pytest.raises(ValueError):
            fn(0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            fn(0.5, 0.0, 0.1)
        with pytest.raises(ValueError):
            fn(0.5, 0.1, -0.1)


# --- gaussian bet sizing ---------------------------------------------------------


def test_gaussian_zero_at_baseline():
    assert gaussian_bet_size(0.5) == 0.0


def test_gaussian_approaches_one():
    assert gaussian_bet_size(1 - 1e-9) > 1 - 1e-6


def test_gaussian_m06_against_series_oracle():
    m = gaussian_bet_size(0.6)
    z = (0.6 - 0.5) / math.sqrt(0.6 * 0.4)
    want = 2.0 * oracles.normal_cdf_series(z) - 1.0
    assert abs(m - want) <= 1e-6
    assert abs(m - 0.161744) < 5e-5


def test_gaussian_strictly_increasing_above_baseline():
    # Strict below the float64 saturation point (m is within 1e-17 of 1.0
    # for p >~ 0.986, where consecutive values round to exactly 1.0).
    ps = np.arange(0.501, 0.9855, 0.0005)
    ms = [gaussian_bet_size(float(p)) for p in ps]
    assert all(b > a for a, b in zip(ms, ms[1:]))
    tail = [gaussian_bet_size(float(p)) for p in np.arange(0.9855, 0.9995, 0.0005)]
    assert all(b >= a for a, b in zip(tail, tail[1:]))


def test_gaussian_short_side_mirror():
    for p in (0.1, 0.25, 0.4, 0.49):
        assert gaussian_bet_size(p) == -gaussian_bet_size(1.0 - p)
        assert gaussian_bet_size(p) < 0


def test_gaussian_dead_zone_for_offset_baseline():
    # With expected = 0.6, probabilities whose p and q both sit below the
    # baseline carry no conviction either way.
    assert gaussian_bet_size(0.55, expected=0.6) == 0.0
    assert gaussian_bet_size(0.7, expected=0.6) > 0
    assert gaussian_bet_size(0.3, expected=0.6) < 0


def test_normal_cdf_sanity():
    assert abs(normal_cdf(0.0) - 0.5) <= 1e-15
    assert abs(normal_cdf(1.0) - oracles.normal_cdf_series(1.0)) <= 1e-12


def test_gaussian_validation():
    with pytest.raises(ValueError):
        gaussian_bet_size(0.0)
    with pytest.raises(ValueError):
        gaussian_bet_size(0.5, expected=1.0)


# --- decisions ---------------------------------------------------------------------


def test_decide_half_kelly_worked_example():
    policy = SizingPolicy("kelly", kelly_fraction=0.5, max_leverage=5.0, modifier=1.0)
    d = decide(0.6, (0.05, 0.04), policy)
    assert abs(d.fraction - 1.0) <= 1e-12
    assert d.side == "LONG"
    assert abs(d.raw_fraction - 2.0) <= 1e-12


def test_decide_none_sign_rule():
    d = decide(0.3, None, SizingPolicy("none", modifier=0.1))
    assert d.fraction == -0.1 and d.side == "SHORT"
    d = decide(0.5, None, SizingPolicy("none"))
    assert d.fraction == 0.0 and d.side == "FLAT"


def test_decide_leverage_clamp():
    policy = SizingPolicy("kelly", max_leverage=5.0, modifier=2.0)
    d = decide(0.8, (0.01, 0.01), policy)
    assert d.raw_fraction == kelly_fraction(0.8, 0.01, 0.01)
    assert d.fraction == 5.0 * 2.0


def test_decide_gaussian_ignores_estimates():
    policy = SizingPolicy("gaussian", modifier=1.0)
    d = decide(0.6, None, policy)
    assert abs(d.fraction - gaussian_bet_size(0.6)) <= 1e-15


def test_decide_kelly_requires_estimate():
    with pytest.raises(ValueError, match="estimate"):
        decide(0.6, None, SizingPolicy("kelly"))


def test_modifier_scales_fraction_exactly_and_keeps_side():
    rng = np.random.default_rng(2)
    for kind in ("none", "gaussian", "kelly"):
        for _ in range(50):
            p = float(rng.uniform(0.05, 0.95))
            est = (float(rng.uniform(0.005, 0.2)), float(rng.uniform(0.005, 0.2)))
            base = decide(p, est, SizingPolicy(kind, modifier=1.0))
            for c in (0.1, 0.5, 2.0):
                scaled = decide(p, est, SizingPolicy(kind, modifier=c))
                assert scaled.fraction == base.fraction * c
                assert scaled.side == base.side or base.fraction == 0.0


def test_fraction_bounded_by_cap_times_modifier():
    rng = np.random.default_rng(3)
    for kind in ("none", "gaussian", "kelly"):
        policy = SizingPolicy(kind, max_leverage=2.0, modifier=0.7)
        for _ in range(100):
            p = float(rng.uniform(0.05, 0.95))
            est = (float(rng.uniform(0.005, 0.2)), float(rng.uniform(0.005, 0.2)))
            d = decide(p, est, policy)
            assert abs(d.fraction) <= 2.0 * 0.7 + 1e-12


def test_policy_validation():
    with pytest.raises(ValueError):
        SizingPolicy("martingale")
    with pytest.raises(ValueError):
        SizingPolicy("kelly", kelly_fraction=0.0)
    with pytest.raises(ValueError):
        SizingPolicy("kelly", kelly_fraction=1.5)
    with pytest.raises(ValueError):
        SizingPolicy("kelly", max_leverage=0.0)
    with pytest.raises(ValueError):
        SizingPolicy("gaussian", expected=0.0)
    with pytest.raises(ValueError):
        SizingPolicy("none", modifier=-1.0)
    assert SizingPolicy("Kelly").kind == "KELLY"


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_policy_rejects_non_finite_modifier(value):
    with pytest.raises(ValueError, match="modifier must be finite"):
        SizingPolicy("none", modifier=value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_policy_rejects_non_finite_max_leverage(value):
    with pytest.raises(ValueError, match="max_leverage must be finite"):
        SizingPolicy("kelly", max_leverage=value)


@pytest.mark.parametrize("a,b", [(math.nan, 0.05), (0.05, math.nan)])
def test_pab_validation_rejects_nan(a, b):
    with pytest.raises(ValueError):
        kelly_fraction(0.6, a, b)
    with pytest.raises(ValueError):
        log_optimal_fraction(0.6, a, b)
