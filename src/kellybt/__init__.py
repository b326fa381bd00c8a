"""kellybt: bet-sized backtesting over hourly OHLCV candles.

Pipeline: ingest or synthesize candles -> technical indicators and
normalized features -> direction labels -> simulated or externally
supplied direction probabilities plus profit/loss scenario estimates ->
Kelly or Gaussian position sizing -> compounding backtest -> benchmark
metric reports.
"""

__version__ = "0.1.0"

from .backtest import BacktestConfig, EquityCurve, Trade, compare_strategies, run_backtest
from .candles import (CandleSeries, SplitSpec, generate_synthetic_series,
                      parse_candles, positions, split_dataset)
from .features import (FeatureMatrix, LabelSet, apply_normalizer, build_feature_matrix,
                       default_grid, fit_normalizer, make_labels)
from .indicators import IndicatorSpec, ValueSeries, compute_indicator, smooth
from .labeling import (BarrierConfig, BarrierLabel, BarrierLabels, label_series,
                       triple_barrier_label)
from .metrics import (BacktestReport, build_report, classification_report,
                      cumulative_return, max_drawdown, regression_report, romad,
                      sharpe_monthly)
from .predictors import (Predictions, Scenarios, estimate_scenarios, load_predictions,
                         simulate_balanced, simulate_gaussian, simulate_optimal)
from .sizing import (BetDecision, SizingPolicy, decide, gaussian_bet_size,
                     kelly_fraction, log_optimal_fraction)

__all__ = [
    "BacktestConfig", "EquityCurve", "Trade", "compare_strategies", "run_backtest",
    "CandleSeries", "SplitSpec", "generate_synthetic_series",
    "parse_candles", "positions", "split_dataset",
    "FeatureMatrix", "LabelSet", "apply_normalizer", "build_feature_matrix",
    "default_grid", "fit_normalizer", "make_labels",
    "IndicatorSpec", "ValueSeries", "compute_indicator", "smooth",
    "BarrierConfig", "BarrierLabel", "BarrierLabels", "label_series", "triple_barrier_label",
    "BacktestReport", "build_report", "classification_report", "cumulative_return",
    "max_drawdown", "regression_report", "romad", "sharpe_monthly",
    "Predictions", "Scenarios", "estimate_scenarios",
    "load_predictions", "simulate_balanced", "simulate_gaussian", "simulate_optimal",
    "BetDecision", "SizingPolicy", "decide", "gaussian_bet_size", "kelly_fraction",
    "log_optimal_fraction",
    "__version__",
]
