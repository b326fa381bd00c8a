"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or on failure).

Criterion 11 doubles as the scope statement: published headline backtest
numbers (e.g. a 263% cumulative return with -20% drawdown over several
years of real exchange history, and trained-model precision/recall tables)
are NOT reproduction targets here, because they depend on proprietary
trained models and the full exchange history. What is pinned instead: the
worked sizing examples, formula-level properties, oracle equivalences,
exact simulator counts, qualitative Sharpe orderings, and the reporting
pipeline's ability to ingest external predictions and emit the benchmark
table layout.
"""
import csv
import math

import numpy as np

from kellybt import backtest, features, metrics, predictors, sizing
from kellybt.candles import generate_synthetic_series
from kellybt.cli import main as cli_main
from kellybt.indicators import compute_indicator
from kellybt.labeling import BarrierConfig, label_series
from kellybt.predictors import simulate_balanced, simulate_gaussian, simulate_optimal

import oracles
from conftest import regime_series
from test_indicators import ALL_SPECS, BOUNDS


def _check(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status} - {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {description} {detail}"


def test_criterion_01_kelly_worked_example():
    f = sizing.kelly_fraction(0.6, 0.05, 0.04)
    _check(1, "risk/reward Kelly fraction (0.6, 0.05, 0.04) = 2.0 within 1e-12",
           abs(f - 2.0) <= 1e-12, f"f={f!r}")


def test_criterion_02_log_growth_optimality():
    # The optimality property belongs to the log-growth maximizer
    # (log_optimal_fraction). The classical risk/reward form p/a - q/b
    # coincides with it only for a == b; see the sizing module notes.
    rng = np.random.default_rng(0)
    worst = -np.inf
    ok = True
    for _ in range(1000):
        p = float(rng.uniform(0.05, 0.95))
        a, b = (float(x) for x in rng.uniform(0.005, 0.2, size=2))
        q = 1.0 - p
        f = sizing.log_optimal_fraction(p, a, b)
        if not -1.0 / a < f < 1.0 / b:
            ok = False
            break
        lo, hi = -1.0 / a, 1.0 / b
        eps = (hi - lo) * 1e-9
        fs = np.linspace(lo + eps, hi - eps, 10_001)
        g = p * np.log1p(a * fs) + q * np.log1p(-b * fs)
        g_star = p * math.log1p(a * f) + q * math.log1p(-b * f)
        excess = float(g.max() - g_star)
        worst = max(worst, excess)
        if excess > 1e-10:
            ok = False
            break
    _check(2, "10,001-point grid search never beats the log-growth optimum by > 1e-10",
           ok, f"worst excess {worst:.2e} over 1000 draws")


def test_criterion_03_gaussian_bet_sizing():
    m0 = sizing.gaussian_bet_size(0.5)
    z = (0.6 - 0.5) / math.sqrt(0.6 * 0.4)
    want = 2.0 * oracles.normal_cdf_series(z) - 1.0
    m6 = sizing.gaussian_bet_size(0.6)
    # Strict monotonicity checked below the float64 saturation point
    # (the true value sits within 1e-17 of 1.0 for p >~ 0.986).
    ps = np.arange(0.5005, 0.9855, 0.0005)
    ms = [sizing.gaussian_bet_size(float(p)) for p in ps]
    increasing = all(b > a for a, b in zip(ms, ms[1:]))
    ok = m0 == 0.0 and increasing and abs(m6 - want) <= 1e-6
    _check(3, "gaussian sizing: m(0.5)=0, strictly increasing, m(0.6) vs CDF oracle <= 1e-6",
           ok, f"m(0.6)={m6:.8f} oracle={want:.8f}")


def test_criterion_04_optimal_model_zero_drawdown():
    # Zero drawdown needs every position to point the way the (always
    # correct) prediction points. The risk/reward Kelly form flips sign
    # when trailing estimates are extremely lopsided (p*b < q*a, i.e.
    # a/b > 4 at p = 0.8), which never occurs on this configuration; the
    # Gaussian and sign policies cannot flip at all.
    series = generate_synthetic_series(seed=3, n=5000, volatility=0.01)
    labels = features.make_labels(series)
    preds = simulate_optimal(labels)
    ests = predictors.estimate_scenarios(series, window=100)
    cfg = backtest.BacktestConfig()
    ok = True
    for modifier in (0.25, 1.0, 2.5):
        policies = [sizing.SizingPolicy(kind, modifier=modifier)
                    for kind in ("none", "gaussian", "kelly")]
        for res in backtest.compare_strategies(series, preds, ests, policies, cfg):
            if res.report.max_drawdown_pct != 0.0:
                ok = False
    _check(4, "always-correct simulator yields exactly 0.00% drawdown for all "
              "policies and positive modifiers", ok)


def test_criterion_05_sharpe_ordering_across_policies():
    # Volatility-clustered synthetic world (alternating calm/crisis GBM
    # segments, each longer than a calendar month). Mechanisms, not tuned
    # magic: trailing-window Kelly sizes inversely to realized volatility
    # (vol targeting), the Gaussian-CDF size keeps exposure well under the
    # all-in baseline (less compounding drag), and the all-in baseline pays
    # full drag. 5% fractional Kelly keeps positions near 1x bankroll given
    # raw fractions of ~10-30.
    policies = [sizing.SizingPolicy("none"), sizing.SizingPolicy("gaussian"),
                sizing.SizingPolicy("kelly", kelly_fraction=0.05)]
    cfg = backtest.BacktestConfig()
    seeds = range(12)
    ok = True
    details = []
    for sim in ("balanced", "gaussian"):
        sharpes = {p.label: [] for p in policies}
        for seed in seeds:
            series = regime_series(seed, n=5000, segments=4,
                                   vol_low=0.004, vol_high=0.025)
            labels = features.make_labels(series)
            preds = (simulate_balanced(labels, seed) if sim == "balanced"
                     else simulate_gaussian(labels, seed))
            ests = predictors.estimate_scenarios(series, window=100)
            for res in backtest.compare_strategies(series, preds, ests, policies, cfg):
                sharpes[res.policy.label].append(res.report.sharpe)
        k, g, n = (float(np.mean(sharpes[x])) for x in ("kelly", "gaussian", "none"))
        details.append(f"{sim}: K={k:.3f} G={g:.3f} N={n:.3f}")
        if not k >= g >= n:
            ok = False
    _check(5, "mean Sharpe over 12 seeds orders KELLY >= GAUSSIAN >= NONE for both "
              "balanced and gaussian simulators", ok, "; ".join(details))


def test_criterion_06_hit_rate_exactness():
    ok = True
    details = []
    for n in (10, 100, 1000):
        series = generate_synthetic_series(seed=n, n=n + 5, volatility=0.01)
        labels = features.make_labels(series)
        for name, preds in (("balanced", simulate_balanced(labels, seed=1)),
                            ("gaussian", simulate_gaussian(labels, seed=1))):
            assert np.array_equal(preds.timestamps, labels.timestamps)
            correct = int((np.where(preds.p_up > 0.5, 1, -1) == labels.direction).sum())
            want = round(0.6 * n)
            details.append(f"{name} n={n}: {correct}")
            if correct != want:
                ok = False
    _check(6, "balanced and gaussian simulators hit exactly round(0.6n) correct calls",
           ok, "; ".join(details))


def test_criterion_07_indicator_oracle_equivalence():
    series = generate_synthetic_series(seed=77, n=1000, drift=0.0002, volatility=0.015)
    ok = True
    worst = 0.0
    for spec in ALL_SPECS:
        got = compute_indicator(series, spec)
        want = np.asarray(oracles.oracle_indicator(series, spec.kind, spec.periods))
        if not np.array_equal(np.isnan(got), np.isnan(want)):
            ok = False
            continue
        mask = ~np.isnan(want)
        diff = float(np.abs(got[mask] - want[mask]).max())
        worst = max(worst, diff)
        if diff > 1e-9:
            ok = False
        if spec.kind in BOUNDS:
            lo, hi = BOUNDS[spec.kind]
            if got[mask].min() < lo - 1e-9 or got[mask].max() > hi + 1e-9:
                ok = False
    _check(7, "all 11 indicator kinds match the direct-definition oracle within 1e-9 "
              "and satisfy range bounds", ok, f"worst |diff| {worst:.2e}")


def test_criterion_08_triple_barrier_oracle_equivalence():
    ok = True
    count = 0
    for rule in ("SIGN", "ZERO"):
        cfg = BarrierConfig(up_pct=0.015, down_pct=0.015, horizon=8, vertical_rule=rule)
        for seed in range(10):
            series = generate_synthetic_series(seed=seed, n=60, volatility=0.012)
            labels = oracles.barrier_label_records(label_series(series, cfg))
            for entry, got in labels[:len(series) - cfg.horizon - 1]:
                if got != oracles.o_barrier_label(series, entry, cfg):
                    ok = False
                count += 1
    _check(8, "triple-barrier labels match the bar-by-bar scan oracle for both "
              "vertical rules", ok and count >= 1000, f"{count} paths checked")


def test_criterion_09_metric_correctness():
    rng = np.random.default_rng(9)
    mdd_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        values = np.exp(rng.normal(0, 0.05, size=n).cumsum()) * 100.0
        ts = np.arange(n, dtype=np.int64) * 3600
        curve = backtest.EquityCurve(ts, values)
        if metrics.max_drawdown(curve) != oracles.o_max_drawdown_pct(list(values)):
            mdd_ok = False
            break

    labels = features.make_labels(generate_synthetic_series(seed=10, n=105))
    preds = predictors.Predictions(labels.timestamps, np.full(len(labels), 0.5))
    logloss = metrics.classification_report(preds, labels).logloss
    ln2_ok = abs(logloss - math.log(2.0)) <= 1e-12

    curve = backtest.EquityCurve(np.array([0, 3600], dtype=np.int64),
                                 np.array([100.0, 363.0]))
    ret_ok = abs(metrics.cumulative_return(curve) - 263.0) <= 1e-12
    _check(9, "drawdown equals the quadratic oracle on 1000 curves, uniform logloss "
              "= ln 2, 100 -> 363 returns 263%", mdd_ok and ln2_ok and ret_ok)


def test_criterion_10_modifier_sharpe_neutrality():
    # Deep in the linear regime: per-trade magnitudes far below the 0.05
    # bound, where compounding cross-terms are negligible.
    series = generate_synthetic_series(seed=2, n=5000, volatility=0.012)
    labels = features.make_labels(series)
    preds = simulate_balanced(labels, seed=3)
    ests = predictors.estimate_scenarios(series, window=100)
    cfg = backtest.BacktestConfig()
    base_mod = 1e-6
    ok = True
    worst = 0.0
    for kind, kf in (("none", 1.0), ("gaussian", 1.0), ("kelly", 0.1)):
        base = sizing.SizingPolicy(kind, kelly_fraction=kf, modifier=base_mod)
        curve0, trades0 = backtest.run_backtest(series, preds, ests, base, cfg)
        trades0 = oracles.trade_records(trades0)
        s0 = metrics.sharpe_monthly(curve0)
        for c in (0.1, 0.5, 2.0):
            policy = sizing.SizingPolicy(kind, kelly_fraction=kf, modifier=base_mod * c)
            curve, trades = backtest.run_backtest(series, preds, ests, policy, cfg)
            trades = oracles.trade_records(trades)
            if any(abs(t.pnl_fraction) >= 0.05 for t in trades):
                ok = False
            if any(a.side != b.side for a, b in zip(trades0, trades)):
                ok = False
            delta = abs(metrics.sharpe_monthly(curve) - s0)
            worst = max(worst, delta)
            if delta >= 1e-6:
                ok = False
    _check(10, "scaling the modifier by {0.1, 0.5, 2} keeps every side and moves "
               "monthly Sharpe by < 1e-6 in the linear regime", ok,
           f"worst dSharpe {worst:.2e}")


def test_criterion_11_external_prediction_ingestion(tmp_path):
    # Headline magnitudes from published real-data backtests are out of
    # scope (no trained models, no exchange history); the contract here is
    # ingesting an external prediction CSV and emitting the benchmark
    # table layout.
    series = generate_synthetic_series(seed=21, n=900, volatility=0.012)
    candles = tmp_path / "candles.csv"
    series.to_csv(str(candles))
    labels = features.make_labels(series)
    preds = simulate_gaussian(labels, seed=4)
    ests = predictors.estimate_scenarios(series, window=100)
    pred_path = tmp_path / "preds.csv"
    predictors.write_predictions_csv(preds, ests, str(pred_path))

    out = tmp_path / "report"
    code = cli_main(["report", "--input", str(candles), "--predictions",
                     str(pred_path), "--out", str(out)])
    table = (out / "report_table.csv").read_text().strip().splitlines()
    header_ok = table[0] == "Strategy,Cumulative Return,Max Drawdown,Sharpe,RoMaD"
    with open(out / "report_table.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    values_ok = all(row[k] == "NA" or isinstance(float(row[k]), float)
                    for k in ("Cumulative Return", "Max Drawdown", "Sharpe", "RoMaD"))
    _check(11, "external prediction CSV ingested end to end; report uses the "
               "benchmark table column layout", code == 0 and header_ok and values_ok,
           table[0])


def test_criterion_12_trailing_scenarios_beat_constant_ones():
    # The paper's claim as a paired ablation: the same forecasts p, sized by
    # 5% Kelly on trailing (a, b) against Kelly on one constant (a, b), the
    # estimator's full-sample means (which see the future, so favour the
    # baseline), built as --const-a/--const-b build theirs. Mechanism, not
    # tuned magic: trailing scenarios size inversely to recent volatility,
    # so in the calm/crisis segments of regime_series they bet less in the
    # crisis, where a constant keeps betting its average. Seeds and the
    # 17-of-24 bar were fixed before the first run; 17 of 24 is a one-sided
    # sign test at p = 0.032.
    policy = sizing.SizingPolicy("kelly", kelly_fraction=0.05)
    cfg = backtest.BacktestConfig()
    seeds = range(24)
    ok = True
    details = []
    for sim in ("balanced", "gaussian"):
        wins = 0
        for seed in seeds:
            series = regime_series(seed, n=5000, segments=4)
            labels = features.make_labels(series)
            preds = (simulate_balanced(labels, seed) if sim == "balanced"
                     else simulate_gaussian(labels, seed))
            trailing = predictors.estimate_scenarios(series, window=100)
            n, floor = len(labels), predictors.AB_FLOOR
            constant = predictors.Scenarios(
                labels.timestamps, np.full(n, max(float(trailing.a.mean()), floor)),
                np.full(n, max(float(trailing.b.mean()), floor)))
            sharpe = [backtest.compare_strategies(series, preds, ests, [policy], cfg)[0]
                      .report.sharpe for ests in (trailing, constant)]
            wins += sharpe[0] > sharpe[1]
        details.append(f"{sim}: {wins}/{len(seeds)}")
        if wins < 17:
            ok = False
    _check(12, "Kelly on trailing (a, b) beats Kelly on constant (a, b) in monthly Sharpe "
               "in >= 17 of 24 paired seeds for both balanced and gaussian simulators",
           ok, "; ".join(details))


def test_criterion_13_kelly_beats_none_at_the_same_mean_size():
    # Kelly must win on what it knows, not on betting more or less: NONE
    # bets Kelly's own mean |fraction| of the same run, on the same
    # forecasts, the same grid and criterion 5's series, window and 5%
    # Kelly. Seeds and the 17-of-24 bar (a one-sided sign test at p = 0.032)
    # were fixed before the first run. Measured by this code, not asserted
    # (balanced and gaussian simulators): on plain GBM
    # (generate_synthetic_series(seed, 5000), one volatility) Kelly wins 7
    # and 5 of 24. With a null predictor on regime_series it still wins 17
    # and 17 of 24 when p is simulated on the labels of seed + 24's series,
    # and 15 and 14 with hit_rate 0.5 (10 and 14 on GBM, p from seed + 24):
    # much of the margin is trailing (a, b) betting less in the crisis
    # segments, which this bar alone does not separate from p.
    kelly = sizing.SizingPolicy("kelly", kelly_fraction=0.05)
    cfg = backtest.BacktestConfig()
    seeds = range(24)
    ok = True
    details = []
    for sim in ("balanced", "gaussian"):
        wins = 0
        for seed in seeds:
            series = regime_series(seed, n=5000, segments=4)
            labels = features.make_labels(series)
            preds = (simulate_balanced(labels, seed) if sim == "balanced"
                     else simulate_gaussian(labels, seed))
            ests = predictors.estimate_scenarios(series, window=100)
            k = backtest.compare_strategies(series, preds, ests, [kelly], cfg)[0]
            none = sizing.SizingPolicy("none", modifier=float(np.abs(k.trades.fraction).mean()))
            n = backtest.compare_strategies(series, preds, ests, [none], cfg)[0]
            wins += k.report.sharpe > n.report.sharpe
        details.append(f"{sim}: {wins}/{len(seeds)}")
        if wins < 17:
            ok = False
    _check(13, "Kelly beats NONE sized at Kelly's mean |fraction| in monthly Sharpe in "
               ">= 17 of 24 paired seeds for both balanced and gaussian simulators",
           ok, "; ".join(details))
