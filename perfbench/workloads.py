"""The benchmark's workloads: inputs made from the workload seed, the CLI
commands of one pass, and the checks on each command's outputs.

Inputs are written with the benchmark's own numpy generator and formatter,
never with kellybt's `generate_synthetic_series` or `to_csv`, so a change to
those cannot change what the program is fed. `seed_sweep` and
`dense_overlap` pass the seed to the CLI instead, because generating the
series is part of the work those commands do.

Each workload also names the traced spans (see layers.py) its pass must
enter. Each check returns a list of problems; an empty list means the command's
outputs are correct. The checks rebuild what they can from the inputs alone
(row counts, trade counts, confusion counts, the compounded bankroll) rather
than trusting the program's own summaries.
"""
from __future__ import annotations

import csv
import json
import math
import os
import sys

HOUR = 3600
START_TS = 1_577_836_800  # 2020-01-01T00:00:00Z
HORIZON = 5                # the CLI's default horizon
WINDOW = 250               # the CLI's default scenario window


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _data_rows(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


class ResearchPipeline:
    """External-model user path: ingest, features, label, report, backtest
    over one candle CSV, with a prediction CSV for the test split."""

    name = "research_pipeline"
    commands = ("ingest", "features", "label", "report", "backtest")
    spans = ("candles.parse_candles", "candles.split_dataset", "candles.to_csv",
             "indicators.compute_indicator", "features.build_feature_matrix",
             "features.make_labels", "features.fit_normalizer", "features.apply_normalizer",
             "features.write_matrix_csv", "features.write_labels_csv",
             "features.write_norm_stats_json", "labeling.label_series",
             "labeling.write_barrier_labels_csv", "predictors.load_predictions",
             "sizing.decide", "backtest.run_backtest", "backtest.write_trades_csv",
             "backtest.write_equity_csv", "metrics.build_report",
             "metrics.classification_report", "metrics.regression_report",
             "metrics.precision_recall_points", "artifacts.svg_line_chart",
             "artifacts.write_json", "artifacts.write_manifest", "cli.main",
             "cli.cmd_ingest", "cli.cmd_features", "cli.cmd_label", "cli.cmd_report",
             "cli.cmd_backtest")

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.n = 3_000 if small else 50_000
        self.gaps = 3 if small else 10
        self.bars = self.n

    def prepare(self, indir: str) -> None:
        """Write candles.csv and predictions.csv (run in a child process, so
        the runner's own memory stays out of the children's peak RSS)."""
        import numpy as np

        rng = np.random.default_rng(self.seed)
        n = self.n
        close = 30_000.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, n)))
        open_ = np.concatenate(([30_000.0], close[:-1]))
        high = np.maximum(open_, close) * (1.0 + np.abs(rng.normal(0.0, 0.004, n)))
        low = np.minimum(open_, close) * (1.0 - np.abs(rng.normal(0.0, 0.004, n)))
        volume = rng.lognormal(3.0, 0.5, n)
        steps = np.ones(n - 1, dtype=np.int64)
        steps[rng.choice(n - 1, self.gaps, replace=False)] += rng.integers(1, 6, self.gaps)
        ts = START_TS + HOUR * np.concatenate(([0], np.cumsum(steps)))
        # Two decimals for prices, as an exchange reports them. Rounding is
        # monotone, so the OHLC envelope survives it.
        with open(os.path.join(indir, "candles.csv"), "w") as fh:
            fh.write("timestamp,open,high,low,close,volume\n")
            fh.writelines(f"{t},{o:.2f},{h:.2f},{lo:.2f},{c:.2f},{v:.4f}\n"
                          for t, o, h, lo, c, v in zip(ts.tolist(), open_.tolist(),
                                                       high.tolist(), low.tolist(),
                                                       close.tolist(), volume.tolist()))

        # Continuous p_up on the test split, leaning 4 points towards the
        # realized direction; a and b near 5%, so Kelly sizes stay moderate.
        test_start = int(0.85 * n) + 1
        m = n - test_start
        c = np.round(close, 2)
        up = np.zeros(m)
        up[:m - HORIZON] = np.where(c[test_start + HORIZON:] > c[test_start:n - HORIZON],
                                    1.0, -1.0)
        p_up = np.clip(0.5 + 0.04 * up + rng.normal(0.0, 0.08, m), 0.02, 0.98)
        a = rng.lognormal(math.log(0.05), 0.25, m)
        b = rng.lognormal(math.log(0.05), 0.25, m)
        with open(os.path.join(indir, "predictions.csv"), "w") as fh:
            fh.write("timestamp,p_up,a,b\n")
            fh.writelines(f"{t},{p:.6f},{x:.6f},{y:.6f}\n" for t, p, x, y in zip(
                ts[test_start:].tolist(), p_up.tolist(), a.tolist(), b.tolist()))

    def load(self, indir: str) -> list[str]:
        """Read back what the checks need from the written inputs."""
        self.candles = os.path.join(indir, "candles.csv")
        self.predictions = os.path.join(indir, "predictions.csv")
        with open(self.candles) as fh:
            rows = list(csv.reader(fh))[1:]
        self.ts = [int(r[0]) for r in rows]
        self.close = [float(r[4]) for r in rows]
        with open(self.predictions) as fh:
            self.pab = [tuple(float(x) for x in r[1:]) for r in list(csv.reader(fh))[1:]]
        self.i_train, self.i_val = int(0.70 * self.n), int(0.85 * self.n)
        self.test_start = self.i_val + 1
        return [self.candles, self.predictions]

    def argv(self, command: str, out: str) -> list[str]:
        c, p = self.candles, self.predictions
        t1, t2 = str(self.ts[self.i_train]), str(self.ts[self.i_val])
        return {
            "ingest": ["ingest", "--input", c, "--train-end", t1, "--val-end", t2],
            "features": ["features", "--input", c, "--price-model", "--train-end", t1],
            "label": ["label", "--input", c],
            "report": ["report", "--input", c, "--predictions", p],
            "backtest": ["backtest", "--input", c, "--predictions", p],
        }[command] + ["--out", out]

    def _expected_backtest(self):
        """Trade count and final bankroll of the default kelly backtest,
        compounded here from the inputs: stride = horizon, full Kelly
        p/a - q/b clamped at 5x, no fees, ruin at 1% of the bankroll."""
        bankroll, trades = 1.0, 0
        for i in range(self.test_start, self.n - HORIZON, HORIZON):
            p, a, b = self.pab[i - self.test_start]
            fraction = min(max(p / a - (1.0 - p) / b, -5.0), 5.0)
            entry, exit_ = self.close[i], self.close[i + HORIZON]
            bankroll = max(bankroll * (1.0 + fraction * ((exit_ - entry) / entry)), 0.0)
            trades += 1
            if bankroll <= 0.01:
                break
        return trades, bankroll

    def _expected_confusion(self):
        tn = fp = fn = tp = 0
        for i in range(self.test_start, self.n - HORIZON):
            pred_up = self.pab[i - self.test_start][0] > 0.5
            actual_up = self.close[i + HORIZON] > self.close[i]
            if pred_up and actual_up:
                tp += 1
            elif pred_up:
                fp += 1
            elif actual_up:
                fn += 1
            else:
                tn += 1
        return {"tn": tn, "fp": fp, "fn": fn, "tp": tp}

    def _check_backtest_report(self, report: dict) -> list[str]:
        trades, bankroll = self._expected_backtest()
        problems = []
        if report["trade_count"] != trades:
            problems.append(f"trade_count {report['trade_count']} != {trades}")
        if not _close(report["cumulative_return_pct"], (bankroll - 1.0) * 100.0):
            problems.append(f"cumulative_return_pct {report['cumulative_return_pct']} != "
                            f"{(bankroll - 1.0) * 100.0}")
        return problems

    def check(self, command: str, out: str) -> list[str]:
        n = self.n
        if command == "ingest":
            s = _read_json(os.path.join(out, "summary.json"))
            want = {"rows": n, "gaps": self.gaps,
                    "split_rows": {"train": self.i_train + 1,
                                   "validation": self.i_val - self.i_train,
                                   "test": n - self.i_val - 1}}
            return [f"summary {k} {s.get(k)} != {v}" for k, v in want.items() if s.get(k) != v]
        if command == "features":
            problems = []
            if _data_rows(os.path.join(out, "labels.csv")) != n - HORIZON:
                problems.append("labels.csv row count")
            with open(os.path.join(out, "features.csv")) as fh:
                header = fh.readline().split(",")
                first_ts = int(fh.readline().split(",", 1)[0])
                rows = 1 + sum(1 for _ in fh)
            # 26 default indicators, 5 price changes and the direction column.
            if len(header) != 1 + 26 + 6:
                problems.append(f"features.csv has {len(header)} columns")
            # Warm-up rows go from the front and `horizon` rows from the tail.
            if rows != n - HORIZON - self.ts.index(first_ts):
                problems.append(f"features.csv has {rows} rows")
            if len(_read_json(os.path.join(out, "norm_stats.json"))) != 32:
                problems.append("norm_stats.json column count")
            return problems
        if command == "label":
            rows = _data_rows(os.path.join(out, "barrier_labels.csv"))
            return [] if rows == n - HORIZON else [f"barrier_labels.csv has {rows} rows"]
        if command == "report":
            problems = []
            conf = _read_json(os.path.join(out, "classification.json"))["confusion"]
            want = self._expected_confusion()
            if conf != want:
                problems.append(f"confusion {conf} != {want}")
            distinct = len({self.pab[i - self.test_start][0]
                            for i in range(self.test_start, n - HORIZON)})
            if _data_rows(os.path.join(out, "pr_curve.csv")) != distinct:
                problems.append("pr_curve.csv is not one row per distinct p_up")
            if not os.path.exists(os.path.join(out, "regression.json")):
                problems.append("regression.json missing")
            problems += self._check_backtest_report(
                _read_json(os.path.join(out, "backtest_report.json")))
            return problems
        report = _read_json(os.path.join(out, "report.json"))
        problems = self._check_backtest_report(report)
        if _data_rows(os.path.join(out, "trades.csv")) != report["trade_count"]:
            problems.append("trades.csv row count != trade_count")
        return problems


class SeedSweep:
    """The paper's strategy comparison: `compare` over 20 consecutive seeds,
    three simulators and three sizing policies, all in memory."""

    name = "seed_sweep"
    commands = ("compare",)
    spans = ("candles.generate_synthetic_series", "features.make_labels",
             "predictors.simulate_balanced", "predictors.simulate_optimal",
             "predictors.simulate_gaussian", "predictors.estimate_scenarios",
             "sizing.decide", "backtest.run_backtest", "backtest.compare_strategies",
             "metrics.build_report", "artifacts.write_json", "artifacts.write_manifest",
             "cli.main", "cli.cmd_compare")
    sims = ("balanced", "optimal", "gaussian")
    policies = ("none", "gaussian", "kelly")

    def __init__(self, seed: int, small: bool = False):
        self.first = seed
        self.seeds = 2 if small else 20
        self.n = 2_000 if small else 5_000
        self.bars = self.seeds * self.n

    def prepare(self, indir: str) -> None:
        pass

    def load(self, indir: str) -> list[str]:
        return []

    def argv(self, command: str, out: str) -> list[str]:
        return ["compare", "--seeds", f"{self.first}-{self.first + self.seeds - 1}",
                "--n", str(self.n), "--sims", ",".join(self.sims),
                "--policy", ",".join(self.policies), "--out", out]

    def check(self, command: str, out: str) -> list[str]:
        problems = []
        with open(os.path.join(out, "comparison.csv")) as fh:
            rows = list(csv.DictReader(fh))
        keys = sorted((r["model"], int(r["seed"]), r["policy"]) for r in rows)
        want = sorted((m, s, p) for m in self.sims
                      for s in range(self.first, self.first + self.seeds) for p in self.policies)
        if keys != want:
            problems.append("comparison.csv is not one row per seed x simulator x policy")
        # Decisions from the end of the estimator warm-up, one per horizon,
        # while the exit bar is inside the series.
        trades = len(range(WINDOW, self.n - HORIZON, HORIZON))
        for r in rows:
            ruin = "RUIN" in r["flags"].split(";")
            if int(r["trade_count"]) > trades or (not ruin and int(r["trade_count"]) != trades):
                problems.append(f"{r['model']}/{r['seed']}/{r['policy']}: "
                                f"trade_count {r['trade_count']} != {trades}")
            # An always-correct model sized by the sign or the Gaussian rule
            # never bets against the move, so it never draws down. (Kelly can
            # flip sign on lopsided trailing estimates.)
            if (r["model"] == "optimal" and r["policy"] != "kelly"
                    and float(r["max_drawdown_pct"]) != 0.0):
                problems.append(f"optimal/{r['seed']}/{r['policy']} has a drawdown")
        summary = _read_json(os.path.join(out, "summary.json"))
        if len(summary["mean_sharpe"]) != len(self.sims) * len(self.policies):
            problems.append("summary.json mean_sharpe entries")
        return problems


class DenseOverlap:
    """One long series traded on every bar (stride 1, horizon 5) with fees
    and half Kelly, writing predictions, three equity curves and an SVG."""

    name = "dense_overlap"
    commands = ("simulate",)
    spans = ("candles.generate_synthetic_series", "features.make_labels",
             "predictors.simulate_gaussian", "predictors.estimate_scenarios",
             "predictors.write_predictions_csv", "sizing.decide", "backtest.run_backtest",
             "backtest.compare_strategies", "backtest.write_equity_csv",
             "metrics.build_report", "artifacts.svg_line_chart", "artifacts.write_json",
             "artifacts.write_manifest", "cli.main", "cli.cmd_simulate")
    policies = ("none", "gaussian", "kelly")

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.n = 3_000 if small else 50_000
        self.bars = self.n

    def prepare(self, indir: str) -> None:
        pass

    def load(self, indir: str) -> list[str]:
        return []

    def argv(self, command: str, out: str) -> list[str]:
        return ["simulate", "--seed", str(self.seed), "--sim-seed", str(self.seed),
                "--n", str(self.n), "--stride", "1", "--sim", "gaussian",
                "--fee-rate", "0.0005", "--kelly-fraction", "0.5",
                "--policy", ",".join(self.policies), "--out", out]

    def check(self, command: str, out: str) -> list[str]:
        problems = []
        trades = self.n - HORIZON - WINDOW
        rows = _read_json(os.path.join(out, "comparison.json"))
        if sorted(r["policy"] for r in rows) != sorted(self.policies):
            problems.append("comparison.json policies")
        for r in rows:
            if "RUIN" in r["flags"]:
                problems.append(f"{r['policy']} hit RUIN")
            if r["trade_count"] != trades:
                problems.append(f"{r['policy']}: trade_count {r['trade_count']} != {trades}")
            if _data_rows(os.path.join(out, f"equity_{r['policy']}.csv")) != trades + 1:
                problems.append(f"equity_{r['policy']}.csv row count")
        if _data_rows(os.path.join(out, "predictions.csv")) != trades:
            problems.append("predictions.csv row count")
        return problems


WORKLOADS = {w.name: w for w in (ResearchPipeline, SeedSweep, DenseOverlap)}


if __name__ == "__main__":
    # python3 workloads.py NAME SEED INDIR: write one workload's inputs.
    name, seed, indir = sys.argv[1:]
    WORKLOADS[name](int(seed)).prepare(indir)
