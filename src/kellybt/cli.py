"""Batch command-line surface for the pipeline.

Subcommands: ingest, synth, features, label, simulate, backtest, compare,
report, kelly-surface. Every artifact-producing run writes its outputs plus
one manifest.json into the output directory; charts always have a CSV twin.

Config precedence is CLI flag > config file (JSON) > built-in default; the
fully resolved config is echoed in the manifest. Exit codes: 0 success,
2 usage error, 3 missing input, 4 config/validation error, 5 malformed
data. Failures emit a one-line JSON error record on stderr.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import artifacts, backtest, features, labeling, metrics, predictors, sizing
from .candles import (HOUR, CandleSeries, DataError, SplitSpec,
                      generate_synthetic_series, parse_candles, positions, split_dataset)

EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_CONFIG = 4
EXIT_DATA = 5

ENV_DATA_DIR = "KELLYBT_DATA_DIR"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# Option groups shared by several commands; each default is written once.
_CANDLE_INPUT = {"input": None, "symbol": "BTCUSDT"}
_SIZING = {"policy": "none,gaussian,kelly", "kelly_fraction": 1.0, "max_leverage": 5.0,
           "expected": 0.5, "modifier": 1.0}
_TRADING = {"horizon": 5, "stride": None, "fee_rate": 0.0, "window": 250}
_SYNTHETIC = {"n": 5000, "drift": 0.0, "volatility": 0.01, "start_price": 30000.0}
_SIMULATOR = {"hit_rate": 0.6, "p_const": 0.6, "sigma": 0.1, "mu_long": 0.6,
              "mu_short": 0.4, "const_a": None, "const_b": None}

_COMMAND_OPTIONS = {
    "ingest": {**_CANDLE_INPUT, "train_end": None, "val_end": None},
    "synth": {"seed": 0, **_SYNTHETIC, "start_ts": "2020-01-01", "symbol": "SYNTH"},
    "features": {**_CANDLE_INPUT, "grid": None, "price_model": False, "horizon": 5,
                 "train_end": None, "normalize_weights": False},
    "label": {**_CANDLE_INPUT, "up_pct": 0.02, "down_pct": 0.02, "horizon": 5,
              "vertical_rule": "SIGN", "stride": 1, "ambiguous_to_lower": False},
    "simulate": {**_CANDLE_INPUT, "symbol": "SYNTH", "seed": 0, **_SYNTHETIC,
                 "sim": "balanced", "sim_seed": 0, **_SIMULATOR, **_SIZING, **_TRADING},
    "backtest": {**_CANDLE_INPUT, "predictions": None, **_SIZING, "policy": "kelly",
                 **_TRADING},
    "compare": {"seeds": "0-9", **_SYNTHETIC, "sims": "balanced,gaussian", **_SIMULATOR,
                **_SIZING, **_TRADING},
    "report": {**_CANDLE_INPUT, "predictions": None, "strategy_name": "external",
               "threshold": 0.5, **_SIZING, "policy": "kelly", **_TRADING},
    "kelly-surface": {"p": None},
}
# Every command also takes --out.
DEFAULTS: dict[str, dict] = {command: {**options, "out": None}
                             for command, options in _COMMAND_OPTIONS.items()}

_FLAG_HELP = {
    "input": "input candle CSV (timestamp,open,high,low,close,volume)",
    "out": "output directory (default: $KELLYBT_DATA_DIR or ./kellybt_runs, per command)",
    "train_end": "end of the training split, ISO-8601 date or epoch seconds",
    "val_end": "end of the validation split, ISO-8601 date or epoch seconds",
    "policy": "sizing policy name or comma list of none|gaussian|kelly",
    "window": "trailing window (bars) for scenario estimates",
}

_BOOL_FLAGS = {"price_model", "normalize_weights", "ambiguous_to_lower"}
_INT_FLAGS = {"seed", "n", "horizon", "stride", "sim_seed", "window"}
_FLOAT_FLAGS = {"drift", "volatility", "start_price", "up_pct", "down_pct",
                "hit_rate", "p_const", "sigma", "mu_long", "mu_short",
                "kelly_fraction", "max_leverage", "expected", "modifier",
                "fee_rate", "threshold", "p", "const_a", "const_b"}


def build_parser() -> _Parser:
    parser = _Parser(prog="kellybt", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON config file; CLI flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in DEFAULTS.items():
        p = sub.add_parser(command)
        for key in defaults:
            flag = "--" + key.replace("_", "-")
            if key in _BOOL_FLAGS:
                p.add_argument(flag, dest=key, action="store_const", const=True,
                               default=None, help=_FLAG_HELP.get(key))
            elif key in _INT_FLAGS:
                p.add_argument(flag, dest=key, type=int, default=None,
                               help=_FLAG_HELP.get(key))
            elif key in _FLOAT_FLAGS:
                p.add_argument(flag, dest=key, type=float, default=None,
                               help=_FLAG_HELP.get(key))
            else:
                p.add_argument(flag, dest=key, default=None, help=_FLAG_HELP.get(key))
    return parser


def _resolve(command: str, args: argparse.Namespace) -> dict:
    resolved = dict(DEFAULTS[command])
    if args.config:
        if not os.path.exists(args.config):
            raise FileNotFoundError(f"config file not found: {args.config}")
        with open(args.config) as fh:
            conf = json.load(fh)
        section = conf.get(command, conf) if isinstance(conf, dict) else None
        if not isinstance(section, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in section.items():
            norm = key.replace("-", "_")
            if norm in DEFAULTS and isinstance(value, dict):
                continue  # section for another command
            if norm not in resolved:
                raise ValueError(f"unknown config key {key!r} for command {command}")
            resolved[norm] = value
    for key in DEFAULTS[command]:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    return resolved


def _outdir(resolved: dict, command: str) -> str:
    out = resolved.get("out")
    if out is None:
        base = os.environ.get(ENV_DATA_DIR, "kellybt_runs")
        out = os.path.join(base, command)
    os.makedirs(out, exist_ok=True)
    return out


def _parse_time(value) -> int:
    """Epoch seconds, or an ISO-8601 date / datetime interpreted as UTC."""
    if isinstance(value, int):
        return value
    text = str(value).strip()
    try:
        return int(text)
    except ValueError:
        pass
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _require(resolved: dict, command: str, *keys: str) -> None:
    for key in keys:
        if resolved.get(key) is None:
            raise ValueError(f"{command} requires --{key.replace('_', '-')}")


def _load_series(path: str, symbol: str) -> CandleSeries:
    if not os.path.exists(path):
        raise FileNotFoundError(f"input file not found: {path}")
    return parse_candles(path, symbol=symbol)


def _policies(resolved: dict) -> list[sizing.SizingPolicy]:
    names = [s.strip() for s in str(resolved["policy"]).split(",") if s.strip()]
    if not names:
        raise ValueError("no sizing policy given")
    return [
        sizing.SizingPolicy(
            kind=name,
            kelly_fraction=float(resolved["kelly_fraction"]),
            max_leverage=float(resolved["max_leverage"]),
            expected=float(resolved["expected"]),
            modifier=float(resolved["modifier"]),
        )
        for name in names
    ]


def _backtest_config(resolved: dict) -> backtest.BacktestConfig:
    return backtest.BacktestConfig(horizon=resolved["horizon"], stride=resolved["stride"],
                                   fee_rate=resolved["fee_rate"])


def _synthetic_series(resolved: dict, seed: int, **kwargs) -> CandleSeries:
    return generate_synthetic_series(
        seed=seed, n=resolved["n"], drift=resolved["drift"],
        volatility=resolved["volatility"], start_price=resolved["start_price"], **kwargs)


def _scenario_estimates(series, labels, resolved: dict):
    """Trailing-window estimates by default; constants when configured."""
    const_a, const_b = resolved.get("const_a"), resolved.get("const_b")
    if (const_a is None) != (const_b is None):
        raise ValueError("--const-a and --const-b must be given together")
    if const_a is not None:
        if not (0 < const_a < math.inf and 0 < const_b < math.inf):
            raise ValueError(f"constant scenario magnitudes must be finite and > 0, "
                             f"got {const_a}, {const_b}")
        n = len(labels)
        return predictors.Scenarios(labels.timestamps, np.full(n, const_a),
                                    np.full(n, const_b))
    return predictors.estimate_scenarios(series, horizon=resolved["horizon"],
                                         window=resolved["window"])


def _simulate_predictions(labels, sim: str, seed: int, resolved: dict):
    sim = sim.lower()
    if sim == "balanced":
        return predictors.simulate_balanced(labels, seed, hit_rate=resolved["hit_rate"],
                                            p_const=resolved["p_const"])
    if sim == "optimal":
        return predictors.simulate_optimal(labels)
    if sim == "gaussian":
        return predictors.simulate_gaussian(labels, seed, mu_long=resolved["mu_long"],
                                            mu_short=resolved["mu_short"],
                                            sigma=resolved["sigma"],
                                            hit_rate=resolved["hit_rate"])
    raise ValueError(f"unknown simulator {sim!r} (use balanced|optimal|gaussian)")


def _write_table5(rows: list[tuple[str, metrics.BacktestReport]], path: str) -> None:
    """Benchmark-table layout: Cumulative Return, Max Drawdown, Sharpe, RoMaD."""
    artifacts.write_csv(path, ("Strategy", "Cumulative Return", "Max Drawdown", "Sharpe",
                               "RoMaD"),
                        list(zip(*((name, r.cumulative_return_pct, r.max_drawdown_pct,
                                    r.sharpe, r.romad) for name, r in rows))))


def _report_dict(report: metrics.BacktestReport) -> dict:
    return {
        "cumulative_return_pct": report.cumulative_return_pct,
        "max_drawdown_pct": report.max_drawdown_pct,
        "sharpe": report.sharpe,
        "romad": report.romad,
        "trade_count": report.trade_count,
        "win_rate": report.win_rate,
        "flags": list(report.flags),
    }


def _write_comparison(rows: list[dict], path: str) -> None:
    cols = ("model", "seed", "policy", "cumulative_return_pct", "max_drawdown_pct",
            "sharpe", "romad", "trade_count", "win_rate")
    artifacts.write_csv(path, cols + ("flags",),
                        [[row.get(col) for row in rows] for col in cols]
                        + [[";".join(row["flags"]) for row in rows]])


def _equity_svg(results: list[backtest.StrategyResult], path: str, title: str) -> None:
    curves = []
    for res in results:
        ts = res.curve.timestamps
        xs = (ts - ts[:1]) / HOUR  # ts[:1], not ts[0]: an empty curve stays empty
        curves.append((res.policy.label, xs.tolist(), res.curve.values.tolist()))
    artifacts.svg_line_chart(curves, path, title=title)


# --- commands -----------------------------------------------------------------


def cmd_ingest(resolved: dict, outdir: str) -> tuple[list[str], list[int]]:
    _require(resolved, "ingest", "input", "train_end", "val_end")
    series = _load_series(resolved["input"], resolved["symbol"])
    spec = SplitSpec(_parse_time(resolved["train_end"]), _parse_time(resolved["val_end"]))
    train, val, test = split_dataset(series, spec)
    written = []
    for name, part in (("train", train), ("validation", val), ("test", test)):
        path = os.path.join(outdir, f"{name}.csv")
        part.to_csv(path)
        written.append(path)
    summary = {
        "symbol": series.symbol,
        "rows": len(series),
        "split_rows": {"train": len(train), "validation": len(val), "test": len(test)},
        "gaps": len(series.gaps),
        "range": [int(series.timestamps[0]), int(series.timestamps[-1])],
    }
    path = os.path.join(outdir, "summary.json")
    artifacts.write_json(summary, path)
    written.append(path)
    return written, []


def cmd_synth(resolved: dict, outdir: str) -> tuple[list[str], list[int]]:
    series = _synthetic_series(resolved, resolved["seed"], symbol=resolved["symbol"],
                               start_ts=_parse_time(resolved["start_ts"]))
    path = os.path.join(outdir, "candles.csv")
    series.to_csv(path)
    return [path], [resolved["seed"]]


def cmd_features(resolved: dict, outdir: str) -> tuple[list[str], list[int]]:
    _require(resolved, "features", "input")
    series = _load_series(resolved["input"], resolved["symbol"])
    if resolved["grid"]:
        with open(resolved["grid"]) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"grid config must be an object, got {config!r}")
        grid = features.grid_from_config(config["indicators"])
    else:
        grid = features.default_grid()
    matrix = features.build_feature_matrix(series, grid,
                                           price_model=bool(resolved["price_model"]),
                                           horizon=resolved["horizon"])
    written = []
    if resolved["train_end"] is not None:
        stats = features.fit_normalizer(
            matrix, (int(series.timestamps[0]), _parse_time(resolved["train_end"])))
        matrix = features.apply_normalizer(matrix, stats)
        path = os.path.join(outdir, "norm_stats.json")
        features.write_norm_stats_json(stats, path)
        written.append(path)
    labels = features.make_labels(series, horizon=resolved["horizon"],
                                  normalize_weights=bool(resolved["normalize_weights"]))
    fpath = os.path.join(outdir, "features.csv")
    features.write_matrix_csv(matrix, fpath)
    lpath = os.path.join(outdir, "labels.csv")
    features.write_labels_csv(labels, lpath)
    return written + [fpath, lpath], []


def cmd_label(resolved: dict, outdir: str) -> tuple[list[str], list[int]]:
    _require(resolved, "label", "input")
    series = _load_series(resolved["input"], resolved["symbol"])
    cfg = labeling.BarrierConfig(
        up_pct=resolved["up_pct"], down_pct=resolved["down_pct"],
        horizon=resolved["horizon"], vertical_rule=str(resolved["vertical_rule"]).upper(),
        ambiguous_to_lower=bool(resolved["ambiguous_to_lower"]),
    )
    labeled = labeling.label_series(series, cfg, stride=resolved["stride"])
    path = os.path.join(outdir, "barrier_labels.csv")
    labeling.write_barrier_labels_csv(series, labeled, path)
    return [path], []


def _sim_series(resolved: dict) -> tuple[CandleSeries, list[int]]:
    if resolved["input"]:
        return _load_series(resolved["input"], resolved["symbol"]), []
    seed = resolved["seed"]
    return _synthetic_series(resolved, seed, symbol=resolved["symbol"]), [seed]


def cmd_simulate(resolved: dict, outdir: str) -> tuple[list[str], list[int]]:
    series, seeds = _sim_series(resolved)
    labels = features.make_labels(series, horizon=resolved["horizon"])
    preds = _simulate_predictions(labels, resolved["sim"], resolved["sim_seed"], resolved)
    ests = _scenario_estimates(series, labels, resolved)
    results = backtest.compare_strategies(series, preds, ests, _policies(resolved),
                                          _backtest_config(resolved))

    written = []
    ppath = os.path.join(outdir, "predictions.csv")
    predictors.write_predictions_csv(preds, ests, ppath)
    written.append(ppath)
    rows = []
    table5 = []
    for res in results:
        rows.append({"model": resolved["sim"], "seed": resolved["sim_seed"],
                     "policy": res.policy.label, **_report_dict(res.report)})
        table5.append((res.policy.label, res.report))
        epath = os.path.join(outdir, f"equity_{res.policy.label}.csv")
        backtest.write_equity_csv(res.curve, epath)
        written.append(epath)
    cpath = os.path.join(outdir, "comparison.csv")
    _write_comparison(rows, cpath)
    written.append(cpath)
    jpath = os.path.join(outdir, "comparison.json")
    artifacts.write_json(rows, jpath)
    written.append(jpath)
    tpath = os.path.join(outdir, "report_table.csv")
    _write_table5(table5, tpath)
    written.append(tpath)
    spath = os.path.join(outdir, "equity.svg")
    _equity_svg(results, spath, title=f"{resolved['sim']} simulator")
    written.append(spath)
    return written, seeds + [resolved["sim_seed"]]


def _external_backtest(resolved: dict, command: str):
    """Load the candles and the prediction file, then backtest the first policy.

    Scenarios come from the file's a,b columns when it has them, else from
    the trailing estimator. Returns the series, the predictions, the file's
    scenarios (None without a,b), the StrategyResult and its report JSON,
    which records the scenario source.
    """
    _require(resolved, command, "input", "predictions")
    series = _load_series(resolved["input"], resolved["symbol"])
    if not os.path.exists(resolved["predictions"]):
        raise FileNotFoundError(f"predictions file not found: {resolved['predictions']}")
    preds, file_ests = predictors.load_predictions(resolved["predictions"], series)
    ests, scenario_source = file_ests, "file"
    if ests is None:
        ests = predictors.estimate_scenarios(series, horizon=resolved["horizon"],
                                             window=resolved["window"])
        scenario_source = "trailing_estimate"
    policy = _policies(resolved)[0]
    curve, trades = backtest.run_backtest(series, preds, ests, policy,
                                          _backtest_config(resolved))
    report = metrics.build_report(curve, trades)
    result = backtest.StrategyResult(policy, curve, trades, report)
    return series, preds, file_ests, result, {**_report_dict(report),
                                              "scenario_source": scenario_source}


def cmd_backtest(resolved: dict, outdir: str) -> tuple[list[str], list[int]]:
    series, _, _, res, report_json = _external_backtest(resolved, "backtest")
    tpath, epath, spath, jpath, t5path = (os.path.join(outdir, name) for name in (
        "trades.csv", "equity.csv", "equity.svg", "report.json", "report_table.csv"))
    backtest.write_trades_csv(res.trades, tpath)
    backtest.write_equity_csv(res.curve, epath)
    _equity_svg([res], spath, title=f"backtest {series.symbol}")
    artifacts.write_json(report_json, jpath)
    _write_table5([(res.policy.label, res.report)], t5path)
    return [tpath, epath, spath, jpath, t5path], []


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, hi = map(int, part.split("-", 1))
            if hi < lo:
                raise ValueError(f"seed range {part!r} is reversed in {text!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    seen: set[int] = set()
    for seed in seeds:
        if seed in seen:
            raise ValueError(f"seed {seed} appears more than once in {text!r}")
        seen.add(seed)
    return seeds


def cmd_compare(resolved: dict, outdir: str) -> tuple[list[str], list[int]]:
    seeds = _parse_seeds(resolved["seeds"])
    sims = [s.strip() for s in str(resolved["sims"]).split(",") if s.strip()]
    policies = _policies(resolved)
    cfg = _backtest_config(resolved)
    rows = []
    for seed in seeds:
        series = _synthetic_series(resolved, seed)
        labels = features.make_labels(series, horizon=resolved["horizon"])
        ests = _scenario_estimates(series, labels, resolved)
        for sim in sims:
            preds = _simulate_predictions(labels, sim, seed, resolved)
            for res in backtest.compare_strategies(series, preds, ests, policies, cfg):
                rows.append({"model": sim, "seed": seed, "policy": res.policy.label,
                             **_report_dict(res.report)})

    written = []
    cpath = os.path.join(outdir, "comparison.csv")
    _write_comparison(rows, cpath)
    written.append(cpath)
    summary: dict = {}
    for row in rows:
        key = f"{row['model']}/{row['policy']}"
        summary.setdefault(key, []).append(row["sharpe"])
    means = {
        key: (None if any(v is None for v in vals) else float(np.mean(vals)))
        for key, vals in summary.items()
    }
    jpath = os.path.join(outdir, "summary.json")
    artifacts.write_json({"mean_sharpe": means, "seeds": seeds}, jpath)
    written.append(jpath)
    return written, seeds


def cmd_report(resolved: dict, outdir: str) -> tuple[list[str], list[int]]:
    series, preds, ests, res, report_json = _external_backtest(resolved, "report")
    labels = features.make_labels(series, horizon=resolved["horizon"])

    written = []
    cls = metrics.classification_report(preds, labels, threshold=resolved["threshold"])
    cls_dict = {
        "logloss": cls.logloss,
        "down": vars(cls.down).copy(),
        "up": vars(cls.up).copy(),
        "macro": {"precision": cls.macro_precision, "recall": cls.macro_recall,
                  "f1": cls.macro_f1},
        "weighted": {"precision": cls.weighted_precision, "recall": cls.weighted_recall,
                     "f1": cls.weighted_f1},
        "confusion": {"tn": cls.confusion[0], "fp": cls.confusion[1],
                      "fn": cls.confusion[2], "tp": cls.confusion[3]},
    }
    jpath = os.path.join(outdir, "classification.json")
    artifacts.write_json(cls_dict, jpath)
    written.append(jpath)
    cpath = os.path.join(outdir, "confusion.csv")
    artifacts.write_csv(cpath, ("tn", "fp", "fn", "tp"), [[x] for x in cls.confusion])
    written.append(cpath)
    prpath = os.path.join(outdir, "pr_curve.csv")
    artifacts.write_csv(prpath, ("threshold", "precision", "recall"),
                        list(zip(*metrics.precision_recall_points(preds, labels))))
    written.append(prpath)

    if ests is not None:
        pos, found = positions(labels.timestamps, ests.timestamps)
        at = pos[found]
        pred_change = np.where(labels.direction[at] > 0, ests.a[found], -ests.b[found])
        reg = metrics.regression_report(pred_change, labels.price_change[at])
        rpath = os.path.join(outdir, "regression.json")
        artifacts.write_json({"mae": reg.mae, "mse": reg.mse, "rmse": reg.rmse,
                              "r2": reg.r2}, rpath)
        written.append(rpath)

    t5path = os.path.join(outdir, "report_table.csv")
    _write_table5([(resolved["strategy_name"], res.report)], t5path)
    written.append(t5path)
    jpath2 = os.path.join(outdir, "backtest_report.json")
    artifacts.write_json(report_json, jpath2)
    written.append(jpath2)
    return written, []


def _write_surface(path: str, header: tuple[str, str, str], xs: list[float],
                   ys: list[float], f) -> None:
    """One row per (x, y) of the grid, x-major, with f(x, y) in the last column."""
    grid = list(itertools.product(xs, ys))
    artifacts.write_csv(path, header, [*zip(*grid), [f(x, y) for x, y in grid]])


def cmd_kelly_surface(resolved: dict, outdir: str) -> tuple[list[str], list[int]]:
    if resolved["p"] is not None:
        p = float(resolved["p"])
        grid = [i / 200.0 for i in range(1, 41)]  # 0.005 .. 0.2
        path = os.path.join(outdir, "kelly_surface_ab.csv")
        _write_surface(path, ("a", "b", "f_star"), grid, grid,
                       lambda a, b: sizing.kelly_fraction(p, a, b))
        return [path], []

    p_grid = [i / 100.0 for i in range(1, 100)]
    b_grid = [float(10.0 ** e) for e in np.linspace(-2.0, 0.0, 41)]
    pb_path = os.path.join(outdir, "kelly_surface_pb.csv")
    # Classic odds form: unit gain (a = 1), loss proportion b.
    _write_surface(pb_path, ("p", "b", "f"), p_grid, b_grid,
                   lambda p, b: sizing.kelly_fraction(p, 1.0, b))
    ab_grid = [i / 20.0 for i in range(2, 21)]  # 0.1 .. 1.0
    pab_path = os.path.join(outdir, "kelly_surface_pab.csv")
    _write_surface(pab_path, ("p", "ab", "f_star"), p_grid, ab_grid,
                   lambda p, ab: sizing.kelly_fraction(p, ab, ab))
    return [pb_path, pab_path], []


_COMMANDS = {
    "ingest": cmd_ingest,
    "synth": cmd_synth,
    "features": cmd_features,
    "label": cmd_label,
    "simulate": cmd_simulate,
    "backtest": cmd_backtest,
    "compare": cmd_compare,
    "report": cmd_report,
    "kelly-surface": cmd_kelly_surface,
}


def _error_record(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        resolved = _resolve(args.command, args)
        outdir = _outdir(resolved, args.command)
        written, seeds = _COMMANDS[args.command](resolved, outdir)
        inputs = [resolved[k] for k in ("input", "predictions", "grid")
                  if resolved.get(k) and os.path.exists(str(resolved[k]))]
        manifest = artifacts.write_manifest(outdir, args.command, resolved,
                                            inputs, seeds, written)
        print(json.dumps({"status": "ok", "outdir": outdir, "manifest": manifest}))
        return 0
    except _UsageError as exc:
        _error_record("usage", str(exc))
        return EXIT_USAGE
    except FileNotFoundError as exc:
        _error_record("missing_input", str(exc))
        return EXIT_MISSING_INPUT
    except DataError as exc:
        _error_record("data", str(exc))
        return EXIT_DATA
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        _error_record("config", str(exc))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
