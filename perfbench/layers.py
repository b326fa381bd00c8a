"""Self-time tracing of the kellybt layers for the in-process benchmark run.

A `Tracer` wraps the public entry points of each kellybt module (the calls
that cross a module boundary) in a timing wrapper. Each wrapper keeps a
stack of open spans, so a span's self time is its duration minus the time
its traced children took. Counters are taken from the same calls' arguments
and results. Nothing under ``src/`` changes: the wrappers are installed from
here and removed again by `Tracer.uninstall`.

A function is patched everywhere it is looked up, not only on its defining
module: ``from .sizing import decide`` leaves a second reference in
``kellybt.backtest``, ``cli._COMMANDS`` holds the command functions, and
``CandleSeries.to_csv`` is a method. A missed reference would leave the
calls unrecorded and their time counted as the caller's self time.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("candles", "indicators", "features", "labeling", "predictors",
          "sizing", "backtest", "metrics", "artifacts", "cli")


def _len_result(counter):
    def count(counts, args, kwargs, result):
        counts[counter] += len(result)
    return count


def _count_rows_dropped(counts, args, kwargs, result):
    series = args[0] if args else kwargs["series"]
    counts["features.rows_dropped"] += len(series) - len(result)


def _count_loaded(counts, args, kwargs, result):
    counts["predictors.predictions"] += len(result[0])


def _count_decision(counts, args, kwargs, result):
    policy = args[2] if len(args) > 2 else kwargs["policy"]
    scaled = result.raw_fraction
    if policy.kind == "KELLY":
        scaled *= policy.kelly_fraction
    if abs(scaled) > policy.max_leverage:
        counts["sizing.clamped"] += 1
    if result.side != "FLAT":
        counts["sizing.nonflat"] += 1


def _count_backtest(counts, args, kwargs, result):
    predictions = args[1] if len(args) > 1 else kwargs["predictions"]
    counts["backtest.offered"] += len(predictions)
    counts["backtest.trades"] += len(result[1])


def _count_report(counts, args, kwargs, result):
    curve = args[0] if args else kwargs["curve"]
    counts["metrics.curve_points"] += len(curve)


def _count_svg(counts, args, kwargs, result):
    curves = args[0] if args else kwargs["curves"]
    counts["artifacts.svg_points"] += sum(len(xs) for _, xs, _ in curves)


# (span key, module, attribute, counter). The span key's first part is the
# layer its self time is charged to.
TARGETS = (
    ("candles.parse_candles", "candles", "parse_candles", _len_result("candles.parse_rows")),
    ("candles.generate_synthetic_series", "candles", "generate_synthetic_series", None),
    ("candles.split_dataset", "candles", "split_dataset", None),
    ("candles.to_csv", "candles", "CandleSeries.to_csv", None),
    ("indicators.compute_indicator", "indicators", "compute_indicator", None),
    ("features.build_feature_matrix", "features", "build_feature_matrix", _count_rows_dropped),
    ("features.make_labels", "features", "make_labels", None),
    ("features.fit_normalizer", "features", "fit_normalizer", None),
    ("features.apply_normalizer", "features", "apply_normalizer", None),
    ("features.write_matrix_csv", "features", "write_matrix_csv", None),
    ("features.write_labels_csv", "features", "write_labels_csv", None),
    ("features.write_norm_stats_json", "features", "write_norm_stats_json", None),
    ("labeling.label_series", "labeling", "label_series", _len_result("labeling.labels")),
    ("labeling.write_barrier_labels_csv", "labeling", "write_barrier_labels_csv", None),
    ("predictors.simulate_balanced", "predictors", "simulate_balanced",
     _len_result("predictors.predictions")),
    ("predictors.simulate_optimal", "predictors", "simulate_optimal",
     _len_result("predictors.predictions")),
    ("predictors.simulate_gaussian", "predictors", "simulate_gaussian",
     _len_result("predictors.predictions")),
    ("predictors.estimate_scenarios", "predictors", "estimate_scenarios", None),
    ("predictors.load_predictions", "predictors", "load_predictions", _count_loaded),
    ("predictors.write_predictions_csv", "predictors", "write_predictions_csv", None),
    ("sizing.decide", "sizing", "decide", _count_decision),
    ("backtest.run_backtest", "backtest", "run_backtest", _count_backtest),
    ("backtest.compare_strategies", "backtest", "compare_strategies", None),
    ("backtest.write_trades_csv", "backtest", "write_trades_csv", None),
    ("backtest.write_equity_csv", "backtest", "write_equity_csv", None),
    ("metrics.build_report", "metrics", "build_report", _count_report),
    ("metrics.classification_report", "metrics", "classification_report", None),
    ("metrics.regression_report", "metrics", "regression_report", None),
    ("metrics.precision_recall_points", "metrics", "precision_recall_points",
     _len_result("metrics.pr_thresholds")),
    ("artifacts.svg_line_chart", "artifacts", "svg_line_chart", _count_svg),
    ("artifacts.write_json", "artifacts", "write_json", None),
    ("artifacts.write_manifest", "artifacts", "write_manifest", None),
    ("cli.main", "cli", "main", None),
    ("cli.cmd_ingest", "cli", "cmd_ingest", None),
    ("cli.cmd_features", "cli", "cmd_features", None),
    ("cli.cmd_label", "cli", "cmd_label", None),
    ("cli.cmd_report", "cli", "cmd_report", None),
    ("cli.cmd_backtest", "cli", "cmd_backtest", None),
    ("cli.cmd_compare", "cli", "cmd_compare", None),
    ("cli.cmd_simulate", "cli", "cmd_simulate", None),
)


class Tracer:
    """Span stack, per-span self time and call counts, and named counters."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, key, fn, count):
        stack, self_s, calls, counts = self._stack, self.self_s, self.calls, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[key] += dt - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += dt
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, holder, name, new):
        if isinstance(holder, dict):
            self._patches.append((holder, name, holder[name]))
            holder[name] = new
        else:
            self._patches.append((holder, name, holder.__dict__[name]))
            setattr(holder, name, new)

    def install(self) -> None:
        """Wrap every target and patch each reference to it in kellybt."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "kellybt" or name.startswith("kellybt.")]
        for key, modname, attr, count in TARGETS:
            module = sys.modules["kellybt." + modname]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, method, self._wrap(key, cls.__dict__[method], count))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(key, original, count)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._replace(value, k, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, name, original = self._patches.pop()
            if isinstance(holder, dict):
                holder[name] = original
            else:
                setattr(holder, name, original)

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for key, seconds in self.self_s.items():
            out[key.split(".", 1)[0]] += seconds
        return out

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass (without cli.<command>_s,
        trace.* and artifacts.bytes_written, which the runner adds)."""
        s, n, c = self.self_s, self.calls, self.counts
        decisions = n["sizing.decide"]
        out = {f"{layer}.self_s": v for layer, v in self.layer_self_s().items()}
        out.update({
            "candles.parse_s": s["candles.parse_candles"],
            "candles.parse_rows": c["candles.parse_rows"],
            "candles.to_csv_s": s["candles.to_csv"],
            "candles.synth_s": s["candles.generate_synthetic_series"],
            "indicators.compute_s": s["indicators.compute_indicator"],
            "indicators.calls": n["indicators.compute_indicator"],
            "features.build_self_s": s["features.build_feature_matrix"],
            "features.normalize_s": s["features.fit_normalizer"] + s["features.apply_normalizer"],
            "features.write_s": (s["features.write_matrix_csv"] + s["features.write_labels_csv"]
                                 + s["features.write_norm_stats_json"]),
            "features.rows_dropped": c["features.rows_dropped"],
            "labeling.label_s": s["labeling.label_series"],
            "labeling.labels": c["labeling.labels"],
            "labeling.write_s": s["labeling.write_barrier_labels_csv"],
            "predictors.simulate_s": (s["predictors.simulate_balanced"]
                                      + s["predictors.simulate_optimal"]
                                      + s["predictors.simulate_gaussian"]),
            "predictors.predictions": c["predictors.predictions"],
            "predictors.estimate_s": s["predictors.estimate_scenarios"],
            "predictors.load_s": s["predictors.load_predictions"],
            "predictors.write_s": s["predictors.write_predictions_csv"],
            "sizing.decide_s": s["sizing.decide"],
            "sizing.decisions": decisions,
            "sizing.nonflat_ratio": c["sizing.nonflat"] / decisions if decisions else 0.0,
            "sizing.clamped": c["sizing.clamped"],
            "backtest.run_self_s": s["backtest.run_backtest"],
            "backtest.trades": c["backtest.trades"],
            "backtest.decision_yield": (decisions / c["backtest.offered"]
                                        if c["backtest.offered"] else 0.0),
            "backtest.write_s": s["backtest.write_trades_csv"] + s["backtest.write_equity_csv"],
            "metrics.report_s": s["metrics.build_report"],
            "metrics.curve_points": c["metrics.curve_points"],
            "metrics.diagnostics_s": (s["metrics.classification_report"]
                                      + s["metrics.regression_report"]),
            "metrics.pr_curve_s": s["metrics.precision_recall_points"],
            "metrics.pr_thresholds": c["metrics.pr_thresholds"],
            "artifacts.svg_s": s["artifacts.svg_line_chart"],
            "artifacts.svg_points": c["artifacts.svg_points"],
            "artifacts.manifest_s": s["artifacts.write_manifest"],
        })
        return out
