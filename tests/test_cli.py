import csv
import json
import os

import pytest

from kellybt.candles import generate_synthetic_series
from kellybt.cli import main
from kellybt.features import make_labels
from kellybt.predictors import estimate_scenarios, simulate_optimal, write_predictions_csv

TABLE5_HEADER = "Strategy,Cumulative Return,Max Drawdown,Sharpe,RoMaD"


def _run(*argv):
    return main(list(argv))


def _read(path):
    with open(path) as fh:
        return fh.read()


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_synth_is_reproducible(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert _run("synth", "--seed", "5", "--n", "300", "--out", out1) == 0
    assert _run("synth", "--seed", "5", "--n", "300", "--out", out2) == 0
    assert _read(f"{out1}/candles.csv") == _read(f"{out2}/candles.csv")
    m1 = json.loads(_read(f"{out1}/manifest.json"))
    m2 = json.loads(_read(f"{out2}/manifest.json"))
    assert m1["artifacts"] == m2["artifacts"]
    assert m1["seeds"] == [5]
    assert m1["config"]["n"] == 300


def test_simulate_optimal_kelly_zero_drawdown(tmp_path):
    out = str(tmp_path / "sim")
    code = _run("simulate", "--sim", "optimal", "--policy", "kelly",
                "--n", "2000", "--out", out)
    assert code == 0
    rows = _rows(f"{out}/comparison.csv")
    assert len(rows) == 1
    assert float(rows[0]["max_drawdown_pct"]) == 0.0
    assert rows[0]["policy"] == "kelly"
    assert os.path.exists(f"{out}/equity.svg")
    assert os.path.exists(f"{out}/equity_kelly.csv")


def test_kelly_surface_fixed_p(tmp_path):
    out = str(tmp_path / "surface")
    assert _run("kelly-surface", "--p", "0.6", "--out", out) == 0
    rows = _rows(f"{out}/kelly_surface_ab.csv")
    hit = [r for r in rows if float(r["a"]) == 0.05 and float(r["b"]) == 0.04]
    assert len(hit) == 1
    assert abs(float(hit[0]["f_star"]) - 2.0) <= 1e-12


def test_kelly_surface_full_grids(tmp_path):
    out = str(tmp_path / "surface2")
    assert _run("kelly-surface", "--out", out) == 0
    assert os.path.exists(f"{out}/kelly_surface_pb.csv")
    assert os.path.exists(f"{out}/kelly_surface_pab.csv")


def test_missing_input_exit_code(tmp_path, capsys):
    code = _run("backtest", "--input", str(tmp_path / "nope.csv"),
                "--predictions", str(tmp_path / "nope2.csv"),
                "--out", str(tmp_path / "bt"))
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "missing_input"


def test_unknown_flag_exit_code(capsys):
    assert _run("synth", "--does-not-exist", "1") == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"


def test_config_validation_exit_code(tmp_path, capsys):
    code = _run("synth", "--n", "0", "--out", str(tmp_path / "x"))
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"


def test_malformed_data_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,open,high,low,close,volume\n3600,100,99,101,100,1\n")
    code = _run("label", "--input", str(bad), "--out", str(tmp_path / "lab"))
    assert code == 5
    assert json.loads(capsys.readouterr().err.strip())["error"] == "data"


def _write_series_and_predictions(tmp_path, n=900):
    series = generate_synthetic_series(seed=21, n=n, volatility=0.012)
    candles = tmp_path / "candles.csv"
    series.to_csv(str(candles))
    labels = make_labels(series)
    preds = simulate_optimal(labels)
    ests = estimate_scenarios(series, window=100)
    pred_path = tmp_path / "preds.csv"
    write_predictions_csv(preds, ests, str(pred_path))
    return str(candles), str(pred_path)


def test_report_emits_benchmark_table_layout(tmp_path):
    candles, preds = _write_series_and_predictions(tmp_path)
    out = str(tmp_path / "report")
    assert _run("report", "--input", candles, "--predictions", preds,
                "--out", out) == 0
    lines = _read(f"{out}/report_table.csv").strip().splitlines()
    assert lines[0] == TABLE5_HEADER
    assert lines[1].startswith("external,")
    for value in lines[1].split(",")[1:3]:
        float(value)  # Cumulative Return and Max Drawdown parse as numbers
    assert os.path.exists(f"{out}/classification.json")
    assert os.path.exists(f"{out}/regression.json")
    assert os.path.exists(f"{out}/pr_curve.csv")
    cls = json.loads(_read(f"{out}/classification.json"))
    assert cls["up"]["recall"] == 1.0  # optimal predictions


def test_backtest_command_reproducible(tmp_path):
    candles, preds = _write_series_and_predictions(tmp_path)
    out1, out2 = str(tmp_path / "bt1"), str(tmp_path / "bt2")
    assert _run("backtest", "--input", candles, "--predictions", preds,
                "--policy", "kelly", "--out", out1) == 0
    assert _run("backtest", "--input", candles, "--predictions", preds,
                "--policy", "kelly", "--out", out2) == 0
    m1 = json.loads(_read(f"{out1}/manifest.json"))
    m2 = json.loads(_read(f"{out2}/manifest.json"))
    assert m1["artifacts"] == m2["artifacts"]
    assert m1["inputs"] == m2["inputs"]
    report = json.loads(_read(f"{out1}/report.json"))
    assert report["scenario_source"] == "file"
    assert report["max_drawdown_pct"] == 0.0


def test_ingest_splits_and_summary(tmp_path):
    series = generate_synthetic_series(seed=22, n=200, volatility=0.01)
    candles = tmp_path / "candles.csv"
    series.to_csv(str(candles))
    out = str(tmp_path / "ingest")
    t_end = int(series.timestamps[99])
    v_end = int(series.timestamps[149])
    assert _run("ingest", "--input", str(candles), "--train-end", str(t_end),
                "--val-end", str(v_end), "--out", out) == 0
    summary = json.loads(_read(f"{out}/summary.json"))
    assert summary["split_rows"] == {"train": 100, "validation": 50, "test": 50}
    for name in ("train", "validation", "test"):
        assert os.path.exists(f"{out}/{name}.csv")


def test_features_command(tmp_path):
    series = generate_synthetic_series(seed=23, n=300, volatility=0.01)
    candles = tmp_path / "candles.csv"
    series.to_csv(str(candles))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"indicators": [
        {"kind": "RSI", "periods": [14]}, {"kind": "ROC", "periods": [10]}]}))
    out = str(tmp_path / "features")
    t_end = int(series.timestamps[200])
    assert _run("features", "--input", str(candles), "--grid", str(grid),
                "--train-end", str(t_end), "--price-model", "--out", out) == 0
    header = _read(f"{out}/features.csv").splitlines()[0].split(",")
    assert header[0] == "timestamp"
    assert len(header) == 1 + 2 + 6
    assert os.path.exists(f"{out}/labels.csv")
    stats = json.loads(_read(f"{out}/norm_stats.json"))
    assert set(stats) == set(header[1:])


@pytest.mark.parametrize("config", [
    {"indicators": {"kind": "RSI"}},             # not a list of entries
    {"indicators": [1]},                         # an entry that is not an object
    {"indicators": [{"kind": "RSI", "periods": [14.7]}]},
    {"indicators": [{"kind": "RSI", "periods": True}]},
    [1],                                         # a config that is not an object
], ids=["not-a-list", "entry-not-object", "fractional-period", "bool-period",
        "config-not-object"])
def test_features_rejects_bad_grid_config(tmp_path, capsys, config):
    candles = tmp_path / "candles.csv"
    generate_synthetic_series(seed=23, n=100).to_csv(str(candles))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(config))
    out = tmp_path / "features"
    assert _run("features", "--input", str(candles), "--grid", str(grid),
                "--out", str(out)) == 4
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
    assert not (out / "features.csv").exists()


def test_label_command(tmp_path):
    series = generate_synthetic_series(seed=24, n=100, volatility=0.02)
    candles = tmp_path / "candles.csv"
    series.to_csv(str(candles))
    out = str(tmp_path / "labels")
    assert _run("label", "--input", str(candles), "--vertical-rule", "ZERO",
                "--out", out) == 0
    lines = _read(f"{out}/barrier_labels.csv").strip().splitlines()
    assert lines[0] == "timestamp,label,hit_kind,hit_bar"
    assert len(lines) == 1 + (100 - 5)


def test_label_rejects_lower_barrier_at_or_below_zero_price_as_config(tmp_path, capsys):
    candles = tmp_path / "candles.csv"
    generate_synthetic_series(seed=24, n=600).to_csv(str(candles))
    out = tmp_path / "labels"
    assert _run("label", "--input", str(candles), "--down-pct", "1.5", "--out", str(out)) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "down_pct" in err["message"]
    assert not (out / "barrier_labels.csv").exists()


def test_simulate_constant_scenario_estimates(tmp_path, capsys):
    out = str(tmp_path / "sim_const")
    assert _run("simulate", "--sim", "balanced", "--policy", "kelly", "--n", "900",
                "--const-a", "0.05", "--const-b", "0.04", "--modifier", "0.01",
                "--out", out) == 0
    trades = _rows(f"{out}/equity_kelly.csv")
    assert len(trades) > 100  # constants cover every label timestamp
    code = _run("simulate", "--sim", "balanced", "--n", "200", "--const-a", "0.05",
                "--out", str(tmp_path / "bad"))
    assert code == 4
    assert "together" in json.loads(capsys.readouterr().err.strip())["message"]


def test_compare_command_rows(tmp_path):
    out = str(tmp_path / "cmp")
    assert _run("compare", "--seeds", "0,1", "--sims", "balanced", "--n", "900",
                "--policy", "none,kelly", "--window", "100", "--out", out) == 0
    rows = _rows(f"{out}/comparison.csv")
    assert len(rows) == 2 * 1 * 2
    assert {r["policy"] for r in rows} == {"none", "kelly"}
    summary = json.loads(_read(f"{out}/summary.json"))
    assert summary["seeds"] == [0, 1]
    assert set(summary["mean_sharpe"]) == {"balanced/none", "balanced/kelly"}


def test_compare_multi_seed_row_accounting(tmp_path):
    out = str(tmp_path / "cmp30")
    assert _run("compare", "--seeds", "0-9", "--sims", "gaussian", "--n", "1200",
                "--window", "100", "--out", out) == 0
    rows = _rows(f"{out}/comparison.csv")
    assert len(rows) == 10 * 1 * 3  # 10 seeds, gaussian model, three policies
    assert sorted({r["seed"] for r in rows}) == sorted(str(s) for s in range(10))
    assert {r["policy"] for r in rows} == {"none", "gaussian", "kelly"}


@pytest.mark.parametrize("seeds, message", [
    ("3-1,5", "seed range '3-1' is reversed"),
    ("0,0", "seed 0 appears more than once"),
    ("0-2,1", "seed 1 appears more than once"),
])
def test_compare_rejects_reversed_or_repeated_seeds(tmp_path, capsys, seeds, message):
    # "3-1,5" ran only seed 5, and "0,0" wrote every row twice into the means.
    out = tmp_path / "cmp"
    assert _run("compare", "--seeds", seeds, "--n", "300", "--out", str(out)) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and message in err["message"]
    assert not (out / "comparison.csv").exists()


@pytest.mark.parametrize("command, horizon", [("features", "0"), ("features", "-2"),
                                              ("simulate", "0")])
def test_horizon_below_one_is_a_config_error(tmp_path, capsys, command, horizon):
    # These exited 4 with numpy's broadcast error or a writer's column-length
    # error, after computing labels for a negative horizon.
    candles = tmp_path / "candles.csv"
    generate_synthetic_series(seed=25, n=300).to_csv(str(candles))
    out = tmp_path / "out"
    assert _run(command, "--input", str(candles), "--horizon", horizon,
                "--out", str(out)) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "config", "message": f"horizon must be >= 1, got {horizon}"}
    assert not out.exists() or not os.listdir(out)


def test_config_file_with_cli_override(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"synth": {"n": 300, "seed": 9}}))
    out = str(tmp_path / "synth")
    assert _run("--config", str(conf), "synth", "--n", "200", "--out", out) == 0
    manifest = json.loads(_read(f"{out}/manifest.json"))
    assert manifest["config"]["n"] == 200  # CLI wins
    assert manifest["config"]["seed"] == 9  # config file beats default


def test_unknown_config_key_rejected(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"synth": {"bogus": 1}}))
    assert _run("--config", str(conf), "synth", "--out", str(tmp_path / "x")) == 4


def test_env_var_default_outdir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KELLYBT_DATA_DIR", str(tmp_path / "data"))
    assert _run("synth", "--n", "50") == 0
    status = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status["outdir"] == os.path.join(str(tmp_path / "data"), "synth")
    assert os.path.exists(os.path.join(status["outdir"], "candles.csv"))


def test_equity_svg_is_well_formed_xml(tmp_path):
    import xml.etree.ElementTree as ET

    out = str(tmp_path / "svg")
    assert _run("simulate", "--sim", "balanced", "--n", "600", "--window", "100",
                "--out", out) == 0
    root = ET.parse(f"{out}/equity.svg").getroot()
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("polyline") for child in root)


def test_every_run_writes_exactly_one_manifest(tmp_path):
    out = str(tmp_path / "sim")
    assert _run("simulate", "--sim", "balanced", "--n", "600", "--window", "100",
                "--out", out) == 0
    manifest = json.loads(_read(f"{out}/manifest.json"))
    for name in manifest["artifacts"]:
        assert os.path.exists(os.path.join(out, name))
    assert manifest["command"] == "simulate"


@pytest.mark.parametrize("const_a,const_b", [("inf", "0.01"), ("nan", "0.01"),
                                             ("0.05", "inf"), ("0.05", "nan")])
def test_simulate_rejects_non_finite_constant_scenarios(tmp_path, capsys, const_a, const_b):
    out = tmp_path / "sim"
    code = _run("simulate", "--n", "300", "--policy", "none", "--const-a", const_a,
                "--const-b", const_b, "--out", str(out))
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "finite" in err["message"]
    assert not (out / "predictions.csv").exists()


@pytest.mark.parametrize("flag", ["--drift", "--volatility", "--start-price"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_rejects_non_finite_settings_as_config(tmp_path, capsys, flag, value):
    assert _run("synth", "--n", "50", flag, value, "--out", str(tmp_path / "s")) == 4
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


@pytest.mark.parametrize("flag,value", [("--volatility", "1e300"), ("--drift", "800"),
                                        ("--drift", "-800")])
def test_synth_rejects_overflowing_settings_as_config(tmp_path, capsys, flag, value):
    out = tmp_path / "s"
    assert _run("synth", "--n", "50", flag, value, "--out", str(out)) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "not finite and positive" in err["message"]
    assert not (out / "candles.csv").exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.5", "1.5"])
def test_report_rejects_threshold_outside_unit_interval(tmp_path, capsys, threshold):
    candles, preds = _write_series_and_predictions(tmp_path)
    out = tmp_path / "report"
    assert _run("report", "--input", candles, "--predictions", preds,
                "--threshold", threshold, "--out", str(out)) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "threshold" in err["message"]
    assert not (out / "confusion.csv").exists()


@pytest.mark.parametrize("argv", [("simulate", "--sim", "gaussian", "--sigma", "nan"),
                                  ("simulate", "--sim", "gaussian", "--sigma", "inf"),
                                  ("label", "--up-pct", "nan"),
                                  ("label", "--down-pct", "inf")],
                         ids=["sigma-nan", "sigma-inf", "up-pct-nan", "down-pct-inf"])
def test_non_finite_simulator_and_barrier_settings_exit_4(tmp_path, capsys, argv):
    candles = tmp_path / "candles.csv"
    generate_synthetic_series(seed=3, n=300).to_csv(str(candles))
    assert _run(*argv, "--input", str(candles), "--out", str(tmp_path / "out")) == 4
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
