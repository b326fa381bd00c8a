"""Batch command-line surface for the pipeline.

Subcommands: ingest, synth, features, label, simulate, backtest, compare,
report, kelly-surface. Every artifact-producing run writes its outputs plus
one manifest.json into the output directory; charts always have a CSV twin.

Config precedence is CLI flag > config file (JSON) > built-in default; the
fully resolved config is echoed in the manifest. Each option is declared
once, in ``DEFAULTS``, and takes the type of its default (``_NUMBER_OPTIONS``
types the numeric options whose default is None; every other None default is
text). A config-file value must be what the flag would parse to: an int also
stands for a float or for epoch seconds of a time option, and null is taken
only where the default is None. Anything else is a config error, and so is an
integer setting outside int64. Each command names its outputs through
``out(name)``, which records them for the manifest.

Exit codes: 0 success, 2 usage error, 3 missing input, 4 config/validation
error, 5 malformed data, 6 any other I/O error (an output path that cannot be
created or written, a CSV table that fails to format). Failures emit a
one-line JSON error record on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import re
import sys
from collections.abc import Callable
from datetime import datetime, timezone

import numpy as np

from . import artifacts, backtest, features, labeling, metrics, predictors, sizing
from .candles import (HOUR, CandleSeries, DataError, generate_synthetic_series,
                      parse_candles, positions, split_dataset)

EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_CONFIG = 4
EXIT_DATA = 5
EXIT_IO = 6

ENV_DATA_DIR = "KELLYBT_DATA_DIR"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes an argument that starts with "-" for a flag unless it
        # matches this pattern; its own (Python 3.10 to 3.13) has no exponent,
        # so "--drift -1e-05" was a usage error.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

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

# An option takes the type of its default; a None default is text, except here.
_NUMBER_OPTIONS = {"stride": int, "p": float, "const_a": float, "const_b": float}
# Read by _parse_time, so a config file may also give them as epoch seconds.
_TIME_OPTIONS = {"train_end", "val_end", "start_ts"}
_JSON_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               type(None): "null"}


def _option_type(command: str, key: str) -> type:
    default = DEFAULTS[command][key]
    return _NUMBER_OPTIONS.get(key, str) if default is None else type(default)


def build_parser() -> _Parser:
    parser = _Parser(prog="kellybt", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON config file; CLI flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in DEFAULTS.items():
        p = sub.add_parser(command)
        for key in defaults:
            flag = "--" + key.replace("_", "-")
            kind = _option_type(command, key)
            if kind is bool:
                p.add_argument(flag, dest=key, action="store_true", default=None,
                               help=_FLAG_HELP.get(key))
            else:
                p.add_argument(flag, dest=key, type=kind, default=None,
                               help=_FLAG_HELP.get(key))
    return parser


def _resolve(command: str, args: argparse.Namespace) -> dict:
    resolved = dict(DEFAULTS[command])
    if args.config:
        if not os.path.exists(args.config):
            raise FileNotFoundError(f"config file not found: {args.config}")
        with open(args.config, encoding="utf-8") as fh:
            conf = json.load(fh)
        section = conf.get(command, conf) if isinstance(conf, dict) else None
        if not isinstance(section, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in section.items():
            norm = key.replace("-", "_")
            if key in DEFAULTS and isinstance(value, dict):
                continue  # section for another command
            if norm not in resolved:
                raise ValueError(f"unknown config key {key!r} for command {command}")
            # The value must be what the flag would parse to; an int also
            # stands for a float or for epoch seconds, null for a None default.
            kind = _option_type(command, norm)
            accepted = [kind]
            if kind is float or norm in _TIME_OPTIONS:
                accepted.append(int)
            if DEFAULTS[command][norm] is None:
                accepted.append(type(None))
            if type(value) not in accepted:
                raise ValueError(f"config key {key!r} for command {command} must be "
                                 f"{' or '.join(_JSON_NAMES[t] for t in accepted)}, "
                                 f"got {value!r}")
            resolved[norm] = value
    for key in DEFAULTS[command]:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    # From a flag or a config file alike: the arrays an integer setting
    # indexes, sizes or seeds are int64.
    for key, value in resolved.items():
        if _option_type(command, key) is int and value is not None \
                and not -2**63 <= value < 2**63:
            raise ValueError(f"{key} must be an integer in [-2**63, 2**63), got {value}")
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
    text = value.strip()
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


def _names(text: str, what: str) -> list[str]:
    """The names in the comma list ``text``; none, or one given twice after
    case folding, is a config error."""
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise ValueError(f"no {what} given")
    for i, name in enumerate(names):
        if name.casefold() in (earlier.casefold() for earlier in names[:i]):
            raise ValueError(f"{what} {name!r} appears more than once in {text!r}")
    return names


def _policies(resolved: dict) -> list[sizing.SizingPolicy]:
    return [
        sizing.SizingPolicy(kind=name, kelly_fraction=resolved["kelly_fraction"],
                            max_leverage=resolved["max_leverage"],
                            expected=resolved["expected"], modifier=resolved["modifier"])
        for name in _names(resolved["policy"], "sizing policy")
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
        n, floor = len(labels), predictors.AB_FLOOR
        return predictors.Scenarios(labels.timestamps, np.full(n, max(const_a, floor)),
                                    np.full(n, max(const_b, floor)))
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


def _write_comparison(rows: list[dict], path: str) -> None:
    """One row per (model, seed, policy) and its report; flags joined by ";"."""
    cols = ("model", "seed", "policy",
            *(f.name for f in dataclasses.fields(metrics.BacktestReport)))
    artifacts.write_csv(path, cols, [[";".join(row[col]) if col == "flags" else row[col]
                                      for row in rows] for col in cols])


def _equity_svg(curves: list[tuple[str, backtest.EquityCurve]], path: str,
                title: str) -> None:
    """Chart each ``(label, curve)`` against hours since its first point."""
    lines = []
    for label, curve in curves:
        ts = curve.timestamps
        xs = (ts - ts[:1]) / HOUR  # ts[:1], not ts[0]: an empty curve stays empty
        lines.append((label, xs, curve.values))
    artifacts.svg_line_chart(lines, path, title=title)


# --- commands -----------------------------------------------------------------
# Each takes the resolved config and ``out(name)``, which gives the path of an
# artifact in the output directory and records it for the manifest; each
# returns the seeds the run used.

Output = Callable[[str], str]


def cmd_ingest(resolved: dict, out: Output) -> list[int]:
    _require(resolved, "ingest", "input", "train_end", "val_end")
    series = _load_series(resolved["input"], resolved["symbol"])
    train, val, test = split_dataset(series, _parse_time(resolved["train_end"]),
                                     _parse_time(resolved["val_end"]))
    for name, part in (("train", train), ("validation", val), ("test", test)):
        part.to_csv(out(f"{name}.csv"))
    summary = {
        "symbol": series.symbol,
        "rows": len(series),
        "split_rows": {"train": len(train), "validation": len(val), "test": len(test)},
        "gaps": len(series.gaps),
        "range": [int(series.timestamps[0]), int(series.timestamps[-1])],
    }
    artifacts.write_json(summary, out("summary.json"))
    return []


def cmd_synth(resolved: dict, out: Output) -> list[int]:
    series = _synthetic_series(resolved, resolved["seed"], symbol=resolved["symbol"],
                               start_ts=_parse_time(resolved["start_ts"]))
    series.to_csv(out("candles.csv"))
    return [resolved["seed"]]


def cmd_features(resolved: dict, out: Output) -> list[int]:
    _require(resolved, "features", "input")
    series = _load_series(resolved["input"], resolved["symbol"])
    if resolved["grid"]:
        with open(resolved["grid"], encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"grid config must be an object, got {config!r}")
        if "indicators" not in config:
            raise ValueError(f"grid config {resolved['grid']} has no \"indicators\" key")
        grid = features.grid_from_config(config["indicators"])
    else:
        grid = features.default_grid()
    train_range = None
    if resolved["train_end"] is not None:
        train_range = (int(series.timestamps[0]), _parse_time(resolved["train_end"]))
    matrix = features.build_feature_matrix(series, grid, price_model=resolved["price_model"],
                                           horizon=resolved["horizon"], train_range=train_range)
    if matrix.stats is not None:
        features.write_norm_stats_json(matrix.stats, out("norm_stats.json"))
    labels = features.make_labels(series, horizon=resolved["horizon"],
                                  normalize_weights=resolved["normalize_weights"])
    features.write_matrix_csv(matrix, out("features.csv"))
    features.write_labels_csv(labels, out("labels.csv"))
    return []


def cmd_label(resolved: dict, out: Output) -> list[int]:
    _require(resolved, "label", "input")
    series = _load_series(resolved["input"], resolved["symbol"])
    cfg = labeling.BarrierConfig(
        up_pct=resolved["up_pct"], down_pct=resolved["down_pct"],
        horizon=resolved["horizon"], vertical_rule=resolved["vertical_rule"].upper(),
        ambiguous_to_lower=resolved["ambiguous_to_lower"],
    )
    labeled = labeling.label_series(series, cfg, stride=resolved["stride"])
    labeling.write_barrier_labels_csv(series, labeled, out("barrier_labels.csv"))
    return []


def _sim_series(resolved: dict) -> tuple[CandleSeries, list[int]]:
    if resolved["input"]:
        return _load_series(resolved["input"], resolved["symbol"]), []
    seed = resolved["seed"]
    return _synthetic_series(resolved, seed, symbol=resolved["symbol"]), [seed]


def cmd_simulate(resolved: dict, out: Output) -> list[int]:
    policies = _policies(resolved)
    series, seeds = _sim_series(resolved)
    labels = features.make_labels(series, horizon=resolved["horizon"])
    preds = _simulate_predictions(labels, resolved["sim"], resolved["sim_seed"], resolved)
    ests = _scenario_estimates(series, labels, resolved)
    del labels  # the predictions and scenarios hold what sizing reads
    # Each table is written as soon as it is known, so the pool formats it
    # while the next policy is sized; the policies still share one grid.
    predictors.write_predictions_csv(preds, ests, out("predictions.csv"))
    cfg = _backtest_config(resolved)
    curves = []
    rows = []
    table5 = []
    for policy in policies:
        res, = backtest.compare_strategies(series, preds, ests, [policy], cfg)
        label = res.policy.label
        backtest.write_equity_csv(res.curve, out(f"equity_{label}.csv"))
        curves.append((label, res.curve))
        rows.append({"model": resolved["sim"], "seed": resolved["sim_seed"],
                     "policy": label, **dataclasses.asdict(res.report)})
        table5.append((label, res.report))
        del res  # and its trades, before the next policy is sized
    _write_comparison(rows, out("comparison.csv"))
    artifacts.write_json(rows, out("comparison.json"))
    _write_table5(table5, out("report_table.csv"))
    _equity_svg(curves, out("equity.svg"), title=f"{resolved['sim']} simulator")
    return seeds + [resolved["sim_seed"]]


def _external_backtest(resolved: dict, command: str):
    """Load the candles and the prediction file, then backtest the one policy;
    a list of policies is a config error, since every output holds one run.

    Scenarios come from the file's a,b columns when it has them, else from
    the trailing estimator. Returns the series, the predictions, the file's
    scenarios (None without a,b), the StrategyResult and its report JSON,
    which records the scenario source.
    """
    _require(resolved, command, "input", "predictions")
    policies = _policies(resolved)
    if len(policies) > 1:
        raise ValueError(f"{command} runs one policy, got --policy {resolved['policy']!r}")
    series = _load_series(resolved["input"], resolved["symbol"])
    if not os.path.exists(resolved["predictions"]):
        raise FileNotFoundError(f"predictions file not found: {resolved['predictions']}")
    preds, file_ests = predictors.load_predictions(resolved["predictions"], series)
    ests, scenario_source = file_ests, "file"
    if ests is None:
        ests = predictors.estimate_scenarios(series, horizon=resolved["horizon"],
                                             window=resolved["window"])
        scenario_source = "trailing_estimate"
    result, = backtest.compare_strategies(series, preds, ests, policies,
                                          _backtest_config(resolved))
    return series, preds, file_ests, result, {**dataclasses.asdict(result.report),
                                              "scenario_source": scenario_source}


def cmd_backtest(resolved: dict, out: Output) -> list[int]:
    series, _, _, res, report_json = _external_backtest(resolved, "backtest")
    backtest.write_trades_csv(res.trades, out("trades.csv"))
    backtest.write_equity_csv(res.curve, out("equity.csv"))
    _equity_svg([(res.policy.label, res.curve)], out("equity.svg"),
                title=f"backtest {series.symbol}")
    artifacts.write_json(report_json, out("report.json"))
    _write_table5([(res.policy.label, res.report)], out("report_table.csv"))
    return []


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
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


def cmd_compare(resolved: dict, out: Output) -> list[int]:
    seeds = _parse_seeds(resolved["seeds"])
    sims = _names(resolved["sims"], "simulator")
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
                             **dataclasses.asdict(res.report)})

    _write_comparison(rows, out("comparison.csv"))
    summary: dict = {}
    for row in rows:
        key = f"{row['model']}/{row['policy']}"
        summary.setdefault(key, []).append(row["sharpe"])
    means = {
        key: (None if any(v is None for v in vals) else float(np.mean(vals)))
        for key, vals in summary.items()
    }
    artifacts.write_json({"mean_sharpe": means, "seeds": seeds}, out("summary.json"))
    return seeds


def cmd_report(resolved: dict, out: Output) -> list[int]:
    series, preds, ests, res, report_json = _external_backtest(resolved, "report")
    labels = features.make_labels(series, horizon=resolved["horizon"])

    cls = metrics.classification_report(preds, labels, threshold=resolved["threshold"])
    artifacts.write_json(dataclasses.asdict(cls), out("classification.json"))
    artifacts.write_csv(out("confusion.csv"), tuple(cls.confusion),
                        [[x] for x in cls.confusion.values()])
    artifacts.write_csv(out("pr_curve.csv"), ("threshold", "precision", "recall"),
                        list(zip(*metrics.precision_recall_points(preds, labels))))

    if ests is not None:
        pos, found = positions(labels.timestamps, ests.timestamps)
        at = pos[found]
        pred_change = np.where(labels.direction[at] > 0, ests.a[found], -ests.b[found])
        reg = metrics.regression_report(pred_change, labels.price_change[at])
        artifacts.write_json(dataclasses.asdict(reg), out("regression.json"))

    _write_table5([(resolved["strategy_name"], res.report)], out("report_table.csv"))
    artifacts.write_json(report_json, out("backtest_report.json"))
    return []


def _write_surface(path: str, header: tuple[str, str, str], xs: list[float],
                   ys: list[float], f) -> None:
    """One row per (x, y) of the grid, x-major, with f(x, y) in the last column."""
    grid = list(itertools.product(xs, ys))
    artifacts.write_csv(path, header, [*zip(*grid), [f(x, y) for x, y in grid]])


def cmd_kelly_surface(resolved: dict, out: Output) -> list[int]:
    p = resolved["p"]
    if p is not None:
        grid = [i / 200.0 for i in range(1, 41)]  # 0.005 .. 0.2
        _write_surface(out("kelly_surface_ab.csv"), ("a", "b", "f_star"), grid, grid,
                       lambda a, b: sizing.kelly_fraction(p, a, b))
        return []

    p_grid = [i / 100.0 for i in range(1, 100)]
    b_grid = [float(10.0 ** e) for e in np.linspace(-2.0, 0.0, 41)]
    # Classic odds form: unit gain (a = 1), loss proportion b.
    _write_surface(out("kelly_surface_pb.csv"), ("p", "b", "f"), p_grid, b_grid,
                   lambda p, b: sizing.kelly_fraction(p, 1.0, b))
    ab_grid = [i / 20.0 for i in range(2, 21)]  # 0.1 .. 1.0
    _write_surface(out("kelly_surface_pab.csv"), ("p", "ab", "f_star"), p_grid, ab_grid,
                   lambda p, ab: sizing.kelly_fraction(p, ab, ab))
    return []


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
        written: list[str] = []

        def out(name: str) -> str:
            written.append(os.path.join(outdir, name))
            return written[-1]

        # Every CSV table is joined as the scope exits, before the manifest
        # hashes it; an exception stops and waits for the row ranges it holds.
        with artifacts.deferred_tables():
            seeds = _COMMANDS[args.command](resolved, out)
        inputs = {k: resolved[k] for k in ("input", "predictions", "grid")
                  if resolved.get(k) and os.path.exists(resolved[k])}
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
    except OSError as exc:
        _error_record("io", str(exc))
        return EXIT_IO
    except DataError as exc:
        _error_record("data", str(exc))
        return EXIT_DATA
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        _error_record("config", str(exc))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
