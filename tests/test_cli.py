import csv
import json
import os
import re
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from kellybt import artifacts, floattext
from kellybt.candles import CandleSeries, generate_synthetic_series, parse_candles
from kellybt.cli import DEFAULTS, _option_type, main
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


def test_simulate_with_a_fee_past_the_largest_float_is_ruin(tmp_path, capsys):
    # fee_rate * |fraction| * 2 overflows to inf: the first trade wipes the
    # bankroll out, with no numpy overflow warning (an error under pytest).
    out = str(tmp_path / "fee")
    assert _run("simulate", "--n", "2000", "--fee-rate", "1e308", "--out", out) == 0
    assert capsys.readouterr().err == ""
    rows = json.loads(_read(f"{out}/comparison.json"))
    assert [r["policy"] for r in rows] == ["none", "gaussian", "kelly"]
    for row in rows:
        assert "RUIN" in row["flags"] and row["trade_count"] == 1
        assert row["cumulative_return_pct"] == -100.0


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


@pytest.mark.parametrize("argv, message", [
    (["backtest", "--input", "{tmp}/nope.csv", "--predictions", "{tmp}/nope2.csv"],
     "input file not found"),
    (["--config", "{tmp}/nope.json", "synth"], "config file not found"),
    (["backtest", "--input", "{tmp}/candles.csv", "--predictions", "{tmp}/nope.csv"],
     "predictions file not found"),
], ids=["input", "config", "predictions"])
def test_missing_input_exit_code(tmp_path, capsys, argv, message):
    generate_synthetic_series(seed=0, n=50).to_csv(str(tmp_path / "candles.csv"))
    code = _run(*(a.format(tmp=tmp_path) for a in argv), "--out", str(tmp_path / "out"))
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "missing_input" and message in err["message"]


def test_unknown_flag_exit_code(capsys):
    assert _run("synth", "--does-not-exist", "1") == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"


@pytest.mark.parametrize("argv, message", [
    (["synth", "--n", "0"], "n must be >= 1, got 0"),
    (["--config", "{tmp}/array.json", "synth"], "config file must hold a JSON object"),
    (["ingest", "--input", "{tmp}/candles.csv", "--val-end", "2020-01-02"],
     "ingest requires --train-end"),
    (["simulate", "--n", "300", "--sim", "nope"], "unknown simulator 'nope'"),
    (["compare", "--seeds", ",", "--n", "300"], "no seeds in ','"),
    (["synth", "--n", "100", "--start-ts", "2020-01-01T00:30:00"],
     "start_ts must be aligned to the 3600s interval, got 1577838600"),
    (["synth", "--n", "10", "--start-ts", "9223372036854774000"],
     "start_ts must keep all 10 bars in the int64 range, got 9223372036854774000"),
    (["synth", "--n", "10", "--start-ts", "4150517416584649113600"],
     "start_ts must keep all 10 bars in the int64 range, got 4150517416584649113600"),
    (["simulate", "--n", "2000", "--modifier", "1e308", "--policy", "kelly"],
     "max_leverage 5.0 times modifier 1e+308 must be finite"),
    # Once a usage error: argparse took "-1e-3" for a flag.
    (["simulate", "--n", "300", "--fee-rate", "-1e-3"], "fee_rate must be finite and >= 0"),
], ids=["value", "array-config", "required", "simulator", "no-seeds", "off-hour-start",
        "start-wraps-int64", "start-past-int64", "modifier-past-float", "negative-exponent"])
def test_config_validation_exit_code(tmp_path, capsys, argv, message):
    (tmp_path / "array.json").write_text("[1]")
    code = _run(*(a.format(tmp=tmp_path) for a in argv), "--out", str(tmp_path / "x"))
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and message in err["message"]


def test_malformed_data_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,open,high,low,close,volume\n3600,100,99,101,100,1\n")
    code = _run("label", "--input", str(bad), "--out", str(tmp_path / "lab"))
    assert code == 5
    assert json.loads(capsys.readouterr().err.strip())["error"] == "data"


def _io_error(capsys):
    """The one JSON error record on stderr, which must be an I/O error."""
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "io"
    return record["message"]


def test_output_directory_that_cannot_be_made_exit_code(tmp_path, capsys):
    # A regular file as the parent, not permission bits, which root ignores.
    parent = tmp_path / "file"
    parent.write_text("")
    assert _run("synth", "--n", "50", "--out", str(parent / "x")) == 6
    assert "Not a directory" in _io_error(capsys)


def test_failing_csv_worker_exit_code(tmp_path, capsys, monkeypatch):
    def boom(columns, start, stop):  # every row range fails
        raise RuntimeError("boom")
        yield b""

    monkeypatch.setattr(floattext, "format_rows", boom)
    monkeypatch.setattr(artifacts, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(artifacts, "CSV_CELLS_PER_RANGE", 1)
    assert _run("synth", "--n", "50", "--out", str(tmp_path / "s")) == 6
    assert _io_error(capsys) == "CSV worker for rows 0-25 failed: RuntimeError: boom"
    assert not (tmp_path / "s" / "manifest.json").exists()


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


@pytest.mark.parametrize("config, message", [
    ({"indicators": {"kind": "RSI"}}, "must be a list of entries"),
    ({"indicators": [1]}, "grid entry must be an object"),
    ({"indicators": [{"kind": "RSI", "periods": [14.7]}]}, "periods must be integers"),
    ({"indicators": [{"kind": "RSI", "periods": True}]}, "periods must be integers"),
    ([1], "grid config must be an object"),
    ({"indicator": [{"kind": "RSI", "periods": [14]}]}, 'has no "indicators" key'),
    ({"indicators": [{"periods": [14]}]}, "grid entry missing kind"),
    ({"indicators": [{"kind": "RSI", "periods": [14]}, {"kind": "rsi", "period": 14}]},
     "indicator column RSI_14 appears more than once"),
    ({"indicators": [{"kind": "EFI", "periods": [14]}, {"kind": "EFI_RATIO", "periods": [14]}]},
     "indicator column EFI_RATIO_14 appears more than once"),
], ids=["not-a-list", "entry-not-object", "fractional-period", "bool-period",
        "config-not-object", "no-indicators-key", "entry-without-kind", "same-indicator-twice",
        "alias-and-kind"])
def test_features_rejects_bad_grid_config(tmp_path, capsys, config, message):
    candles = tmp_path / "candles.csv"
    generate_synthetic_series(seed=23, n=100).to_csv(str(candles))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(config))
    out = tmp_path / "features"
    assert _run("features", "--input", str(candles), "--grid", str(grid),
                "--out", str(out)) == 4
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config" and message in record["message"]
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


@pytest.mark.parametrize("seeds, want", [("0,1", [0, 1]), ("1,,2", [1, 2])])
def test_compare_command_rows(tmp_path, seeds, want):
    out = str(tmp_path / "cmp")
    assert _run("compare", "--seeds", seeds, "--sims", "balanced", "--n", "900",
                "--policy", "none,kelly", "--window", "100", "--out", out) == 0
    rows = _rows(f"{out}/comparison.csv")
    assert len(rows) == 2 * 1 * 2
    assert {r["policy"] for r in rows} == {"none", "kelly"}
    summary = json.loads(_read(f"{out}/summary.json"))
    assert summary["seeds"] == want
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


@pytest.mark.parametrize("argv, message", [
    (["--sims", ","], "no simulator given"),
    (["--sims", " , "], "no simulator given"),
    (["--sims", "balanced,balanced"], "simulator 'balanced' appears more than once"),
    (["--sims", "Gaussian,balanced,gaussian"], "simulator 'gaussian' appears more than once"),
    (["--policy", "kelly,none,KELLY"], "sizing policy 'KELLY' appears more than once"),
], ids=["empty", "blank", "repeated", "case-folded", "policy"])
def test_compare_rejects_an_empty_or_repeated_name_list(tmp_path, capsys, argv, message):
    # "--sims ," wrote a header-only comparison.csv and exited 0, and
    # "--sims balanced,balanced" wrote every row twice.
    out = tmp_path / "cmp"
    assert _run("compare", "--seeds", "0", "--n", "300", *argv, "--out", str(out)) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and message in err["message"]
    assert not (out / "comparison.csv").exists()


@pytest.mark.parametrize("policy, message", [
    ("kelly,kelly", "sizing policy 'kelly' appears more than once in 'kelly,kelly'"),
    ("none,Gaussian,gaussian ", "sizing policy 'gaussian' appears more than once"),
    (" , ", "no sizing policy given"),
], ids=["repeated", "case-folded", "empty"])
def test_simulate_rejects_a_repeated_or_empty_policy_list(tmp_path, capsys, policy, message):
    # "--policy kelly,kelly" wrote equity_kelly.csv twice, two identical
    # comparison.csv rows and two curves labelled kelly.
    out = tmp_path / "sim"
    assert _run("simulate", "--n", "300", "--policy", policy, "--out", str(out)) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and message in err["message"]
    assert not out.exists() or list(out.iterdir()) == []


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


@pytest.mark.parametrize("command, conf, accepted", [
    ("simulate", {"horizon": "5"}, False),
    ("simulate", {"horizon": True}, False),
    ("simulate", {"horizon": None}, False),
    ("simulate", {"horizon": 5.5}, False),
    ("synth", {"n": 300.5}, False),
    ("synth", {"seed": "x"}, False),
    ("synth", {"volatility": "0.01"}, False),
    ("features", {"price_model": "no"}, False),
    ("features", {"normalize_weights": "false"}, False),
    ("simulate", {"kelly_fraction": "0.5"}, False),
    ("simulate", {"policy": ["kelly"]}, False),
    ("synth", {"n": 300}, True),
    ("synth", {"n": 300, "volatility": 1}, True),
    ("synth", {"n": 300, "start_price": 10**300}, True),  # an int near the float range's end
    ("synth", {"n": 300, "start_ts": 1577836800}, True),
    ("ingest", {"train_end": 1577836800 + 99 * 3600}, True),
    ("simulate", {"n": 2000, "stride": None}, True),
])
def test_config_value_must_be_what_its_flag_parses_to(tmp_path, capsys, command, conf,
                                                      accepted):
    # The rejected values used to switch an option on ("no", "false"), reach
    # the manifest as text ("0.5"), or exit 1 with a TypeError traceback.
    series = generate_synthetic_series(seed=26, n=200)
    candles = tmp_path / "candles.csv"
    series.to_csv(str(candles))
    flags = {"ingest": ["--input", str(candles), "--val-end", str(series.timestamps[149])],
             "features": ["--input", str(candles)]}
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({command: conf}))
    out = tmp_path / "out"
    code = _run("--config", str(path), command, *flags.get(command, []), "--out", str(out))
    if accepted:
        assert code == 0
        config = json.loads(_read(out / "manifest.json"))["config"]
        assert json.dumps({key: config[key] for key in conf}) == json.dumps(conf)
    else:
        assert code == 4
        err = json.loads(capsys.readouterr().err.strip())
        [key] = conf
        assert err["error"] == "config" and repr(key) in err["message"]
        assert not out.exists()


def test_flat_config_skips_the_kelly_surface_section(tmp_path):
    # The section was looked up as "kelly_surface", so it was an unknown key.
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n": 300, "kelly-surface": {"p": 0.6}}))
    out = tmp_path / "synth"
    assert _run("--config", str(conf), "synth", "--out", str(out)) == 0
    assert json.loads(_read(out / "manifest.json"))["config"]["n"] == 300


def test_env_var_default_outdir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KELLYBT_DATA_DIR", str(tmp_path / "data"))
    assert _run("synth", "--n", "50") == 0
    status = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status["outdir"] == os.path.join(str(tmp_path / "data"), "synth")
    assert os.path.exists(os.path.join(status["outdir"], "candles.csv"))


def test_equity_svg_is_well_formed_xml(tmp_path):
    """Every SVG the CLI writes parses, and its title keeps the text asked for,
    XML markup characters included."""
    from xml.dom import minidom

    candles, preds = _write_series_and_predictions(tmp_path)
    runs = {
        "simulate": (["simulate", "--sim", "balanced", "--n", "600", "--window", "100"],
                     "balanced simulator"),
        "backtest": (["backtest", "--input", candles, "--predictions", preds],
                     "backtest BTCUSDT"),
        "symbol": (["backtest", "--input", candles, "--predictions", preds,
                    "--symbol", "S&P<500>"], "backtest S&P<500>"),
    }
    for name, (argv, title) in runs.items():
        out = tmp_path / name
        assert _run(*argv, "--out", str(out)) == 0
        svgs = sorted(out.glob("*.svg"))
        assert svgs, name
        for svg in svgs:
            root = minidom.parse(str(svg)).documentElement
            assert root.tagName == "svg"
            assert root.getElementsByTagName("polyline")
            assert root.getElementsByTagName("text")[0].firstChild.data == title


def test_every_run_writes_exactly_one_manifest(tmp_path):
    out = str(tmp_path / "sim")
    assert _run("simulate", "--sim", "balanced", "--n", "600", "--window", "100",
                "--out", out) == 0
    manifest = json.loads(_read(f"{out}/manifest.json"))
    for name in manifest["artifacts"]:
        assert os.path.exists(os.path.join(out, name))
    assert manifest["command"] == "simulate"


def test_manifest_keys_each_input_by_its_option(tmp_path):
    # Keyed by file name, the two inputs below shared one key "x.csv", and
    # the manifest kept only the predictions' digest.
    candles, preds = _write_series_and_predictions(tmp_path)
    for sub, src in (("a", candles), ("b", preds)):
        (tmp_path / sub).mkdir()
        os.replace(src, tmp_path / sub / "x.csv")
    out = tmp_path / "bt"
    assert _run("backtest", "--input", str(tmp_path / "a" / "x.csv"), "--predictions",
                str(tmp_path / "b" / "x.csv"), "--out", str(out)) == 0
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["inputs"] == {
        key: artifacts.sha256_file(manifest["config"][key]) for key in ("input", "predictions")}
    assert manifest["inputs"]["input"] != manifest["inputs"]["predictions"]


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


def test_simulate_floors_small_constant_scenarios(tmp_path):
    # A subnormal constant is raised to AB_FLOOR, as the loaders raise a and b:
    # every file but the manifest is that of the run at the floor itself.
    runs = {}
    for const in ("1e-320", "0.001"):
        out = tmp_path / const
        assert _run("simulate", "--n", "2000", "--policy", "kelly", "--const-a", const,
                    "--const-b", const, "--out", str(out)) == 0
        runs[const] = {p.name: p.read_bytes() for p in out.iterdir()
                       if p.name != "manifest.json"}
    assert "comparison.json" in runs["1e-320"]
    assert runs["1e-320"] == runs["0.001"]
    json.loads(runs["1e-320"]["comparison.json"], parse_constant=pytest.fail)


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


@pytest.mark.parametrize("value", ["-1e-05", "-1E-5", "-.5e-4", "-5.e-6", "-0.00001"])
def test_a_negative_number_in_exponent_form_is_an_option_value(tmp_path, value):
    # argparse's own negative-number pattern has no exponent: "-1e-05" was
    # read as a flag, and the command exited 2.
    out = tmp_path / "s"
    assert _run("synth", "--n", "50", "--drift", value, "--out", str(out)) == 0
    assert json.loads(_read(f"{out}/manifest.json"))["config"]["drift"] == float(value)


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


@pytest.mark.parametrize("argv", [
    ("compare", "--seeds", "0", "--n", "300", "--sims", "gaussian", "--sigma", "1.7e308"),
    ("label", "--up-pct", "1.7e308"),
    ("backtest", "--fee-rate", "8e307"),
], ids=["sigma-overflows-the-draws", "upper-barrier-overflows", "fee-overflows-the-pnl"])
def test_settings_near_the_largest_float_run_with_finite_files(tmp_path, capsys, argv):
    # Each was a numpy overflow warning, a traceback under -W error, or a
    # -inf pnl_fraction cell in trades.csv.
    candles, preds = _write_series_and_predictions(tmp_path, n=400)
    inputs = {"compare": [], "label": ["--input", candles],
              "backtest": ["--input", candles, "--predictions", preds]}[argv[0]]
    out = tmp_path / "out"
    assert _run(*argv, *inputs, "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    for path in out.glob("*.csv"):
        cells = {cell for line in _read(path).splitlines() for cell in line.split(",")}
        assert not cells & {"nan", "inf", "-inf"}, path.name


def test_a_horizon_near_the_int64_limit_is_a_config_error(tmp_path, capsys):
    # pred_pos + horizon wrapped below 0, and the grid gather raised IndexError.
    candles, preds = _write_series_and_predictions(tmp_path, n=400)
    assert _run("backtest", "--input", candles, "--predictions", preds,
                "--horizon", str(2**63 - 1), "--out", str(tmp_path / "out")) == 4
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


@pytest.mark.parametrize("key, value", [("stride", 2**63), ("stride", 10**20),
                                        ("horizon", 10**20), ("horizon", -2**63 - 1),
                                        ("window", 2**63)])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_an_integer_setting_past_int64_is_a_config_error_naming_it(tmp_path, capsys, key,
                                                                   value, source):
    # label --stride 10**20 was an IndexError traceback (exit 1), and
    # --horizon 10**20 numpy's "Maximum allowed size exceeded", naming no setting.
    candles, preds = _write_series_and_predictions(tmp_path, n=400)
    command = "backtest" if key == "window" else "label"
    argv = [command, "--input", candles, "--out", str(tmp_path / "out")]
    if command == "backtest":
        argv += ["--predictions", preds]
    if source == "flag":
        argv += ["--" + key, str(value)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        argv = ["--config", str(config)] + argv
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "config" and record["message"].startswith(f"{key} must be")


_FLOAT_OPTIONS = [(command, key)
                  for command in ("synth", "simulate", "compare", "label", "features",
                                  "backtest", "report")
                  for key in DEFAULTS[command] if _option_type(command, key) is float]


@pytest.mark.parametrize("command, key", _FLOAT_OPTIONS,
                         ids=[f"{c}-{k}" for c, k in _FLOAT_OPTIONS])
def test_a_config_integer_past_the_float_range_is_a_config_error_naming_it(tmp_path, capsys,
                                                                            command, key):
    # A JSON int stands for a float option; one of 400 digits was an
    # OverflowError traceback (exit 1) wherever numpy or math first converted it.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: int("9" * 400)}))
    assert main(["--config", str(config), command, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "config"
    assert record["message"].startswith(f"{key} must be a number in the float range")


def _readme_cli_block():
    """Each line of the README's CLI block as an argv, without ``kellybt``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert lines and all(line.startswith("kellybt ") for line in lines), lines
    return [shlex.split(line)[1:] for line in lines]


def test_readme_cli_block_runs_line_by_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in _readme_cli_block():
        assert main(argv) == 0, argv


@pytest.mark.parametrize("stride", ["5", "2"])
def test_backtest_of_a_written_run_equals_the_run_in_memory(tmp_path, stride):
    """simulate sizes from predictions and scenarios held in memory; backtest
    reads the same ones back from that run's predictions.csv."""
    candles = str(tmp_path / "data" / "candles.csv")
    trading = ["--policy", "kelly", "--stride", stride, "--fee-rate", "0.0005"]
    assert _run("synth", "--seed", "3", "--n", "3000", "--out", str(tmp_path / "data")) == 0
    assert _run("simulate", "--input", candles, "--sim", "gaussian", *trading,
                "--out", str(tmp_path / "sim")) == 0
    assert _run("backtest", "--input", candles, "--predictions",
                str(tmp_path / "sim" / "predictions.csv"), *trading,
                "--out", str(tmp_path / "bt")) == 0
    for sim_name, bt_name in (("equity_kelly.csv", "equity.csv"),
                              ("report_table.csv", "report_table.csv")):
        assert (tmp_path / "sim" / sim_name).read_bytes() == \
            (tmp_path / "bt" / bt_name).read_bytes(), sim_name


def _artifacts_of_both(tmp_path, *argv):
    """Each artifact but the manifest, by name, of one command run on a candle
    file and on its copy with every price doubled; scaling by a power of two
    is exact in binary floating point."""
    series = generate_synthetic_series(seed=3, n=3000)
    doubled = CandleSeries(series.timestamps, *(2.0 * getattr(series, name) for name in
                                                ("open", "high", "low", "close")),
                           series.volume)
    outputs = []
    for name, candles in (("base", series), ("doubled", doubled)):
        candles.to_csv(str(tmp_path / f"{name}.csv"))
        out = tmp_path / f"out_{name}"
        assert _run(*argv, "--input", str(tmp_path / f"{name}.csv"), "--out", str(out)) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                        if p.name != "manifest.json"})
    return outputs


def test_doubling_prices_leaves_every_simulate_artifact_unchanged(tmp_path):
    """Every simulate output is scale-free in price."""
    base, doubled = _artifacts_of_both(tmp_path, "simulate", "--sim", "gaussian",
                                       "--fee-rate", "0.0005")
    assert base.keys() == {"comparison.csv", "comparison.json", "equity.svg",
                           "equity_gaussian.csv", "equity_kelly.csv", "equity_none.csv",
                           "predictions.csv", "report_table.csv"}
    assert base == doubled


def test_doubling_prices_leaves_the_barrier_labels_unchanged(tmp_path):
    """The barriers sit at a fraction of the entry close, so every label,
    hit kind and hit bar is scale-free in price."""
    base, doubled = _artifacts_of_both(tmp_path, "label")
    assert base.keys() == {"barrier_labels.csv"}
    assert base == doubled


def test_doubling_prices_leaves_the_normalized_features_unchanged(tmp_path):
    """features.csv and labels.csv are scale-free in price. Four raw columns
    are in price units and double: MACD_12_26 (a difference of two EMAs) and
    EFI_RATIO_7/14/28 (a price change times a volume ratio); the training-row
    normalization divides that scale out of features.csv, so only their
    mean and std in norm_stats.json double, and exactly."""
    base, doubled = _artifacts_of_both(tmp_path, "features", "--price-model",
                                       "--train-end", "2020-03-01")
    assert base.keys() == {"features.csv", "labels.csv", "norm_stats.json"}
    for name in ("features.csv", "labels.csv"):
        assert base[name] == doubled[name], name
    stats, doubled_stats = (json.loads(out["norm_stats.json"]) for out in (base, doubled))
    in_price_units = {"MACD_12_26", "EFI_RATIO_7", "EFI_RATIO_14", "EFI_RATIO_28"}
    assert in_price_units <= stats.keys() == doubled_stats.keys()
    for column, entry in stats.items():
        if column in in_price_units:
            entry = {**entry, "mean": 2.0 * entry["mean"], "std": 2.0 * entry["std"]}
        assert doubled_stats[column] == entry, column


@pytest.mark.parametrize("command", ["backtest", "report"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_backtest_and_report_reject_a_list_of_policies(tmp_path, capsys, command, source):
    # Both kept only the first policy of a list and exited 0.
    candles, preds = _write_series_and_predictions(tmp_path)
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({command: {"policy": "none,kelly"}}))
    policy = ["--policy", "none,kelly"] if source == "flag" else []
    out = tmp_path / "out"
    assert _run("--config", str(conf), command, "--input", candles, "--predictions", preds,
                *policy, "--out", str(out)) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "--policy" in err["message"]
    assert not (out / "manifest.json").exists()


def _run_under_locale(tmp_path, utf8_mode, *argv):
    """Run the CLI in a fresh interpreter under the C locale, with Python's
    UTF-8 mode off (0) or on (1); the command's output directory."""
    out = tmp_path / f"utf8-{utf8_mode}"
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(Path(artifacts.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-X", f"utf8={utf8_mode}", "-m", "kellybt.cli",
                           *argv, "--out", str(out)], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.mark.parametrize("argv, artifact, text", [
    (["backtest", "--symbol", "BTC€"], "equity.svg", "backtest BTC€"),
    (["report", "--strategy-name", "Stratégie €"], "report_table.csv", "Stratégie €,"),
    (["--config", "conf.json", "report"], "report_table.csv", "Stratégie €,"),
], ids=["svg-title", "csv-cell", "config-file"])
def test_artifacts_are_utf8_whatever_the_locale(tmp_path, monkeypatch, argv, artifact, text):
    # Under the C locale both were written as ASCII: the run exited 4 with
    # "'ascii' codec can't encode characters", and the config file was read
    # as ASCII too.
    candles, preds = _write_series_and_predictions(tmp_path)
    (tmp_path / "conf.json").write_text(
        json.dumps({"strategy_name": "Stratégie €"}, ensure_ascii=False), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    runs = [_run_under_locale(tmp_path, mode, *argv, "--input", candles,
                              "--predictions", preds) for mode in (0, 1)]
    ascii_locale, utf8 = ((out / artifact).read_bytes() for out in runs)
    assert ascii_locale == utf8
    assert text.encode("utf-8") in utf8


def test_a_bankroll_past_the_largest_float_halts_and_writes_no_inf_or_nan(tmp_path):
    """Kelly on always-correct forecasts compounds past 1.8e308 within
    45,000 bars: the run halts before that trade and flags OVERFLOW, and
    every artifact holds finite numbers only (JSON strictly)."""
    out = tmp_path / "sim"
    assert _run("simulate", "--n", "45000", "--sim", "optimal", "--policy", "kelly",
                "--out", str(out)) == 0

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    for path in sorted(out.iterdir()):
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=refuse)
        else:
            assert not {"inf", "nan"} & set(re.split(r"[^a-z]+", text.lower())), path.name
    [row] = json.loads((out / "comparison.json").read_text())
    assert row["flags"][0] == "OVERFLOW" and row["cumulative_return_pct"] is None


@pytest.mark.parametrize("argv", [
    ["ingest", "--train-end", "2020-01-15", "--val-end", "2020-01-25"],
    ["features", "--price-model", "--train-end", "2020-01-20"],
    ["label"],
    ["simulate"],
    ["backtest", "--predictions", "PREDICTIONS"],
    ["report", "--predictions", "PREDICTIONS"],
], ids=lambda argv: argv[0])
def test_a_candle_file_with_a_byte_order_mark_gives_the_same_artifacts(tmp_path, argv):
    candles, preds = _write_series_and_predictions(tmp_path)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(candles).read_bytes())
    argv = [preds if arg == "PREDICTIONS" else arg for arg in argv]
    outputs = []
    for name, path in (("plain", candles), ("marked", marked)):
        out = tmp_path / name
        assert _run(*argv, "--input", str(path), "--out", str(out)) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                        if p.name != "manifest.json"})
    assert outputs[0] and outputs[0] == outputs[1]


# --- the process entry point ------------------------------------------------------


def _process(*args, flags=(), stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """Run a fresh interpreter on ``args`` with kellybt importable, and with
    no warning option, dev mode or unbuffered output from the environment:
    stdout is then a buffered pipe, which the process must flush."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONWARNINGS", "PYTHONDEVMODE", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(Path(artifacts.__file__).parents[1])
    return subprocess.run([sys.executable, *flags, *args], env=env, stdout=stdout,
                          stderr=stderr)


@pytest.mark.parametrize("flags, teardown", [((), False), (("-X", "dev"), True),
                                             (("-W", "default"), True)],
                         ids=["plain", "dev-mode", "warning-option"])
def test_run_skips_the_interpreter_teardown_unless_warnings_are_asked_for(tmp_path, flags,
                                                                          teardown):
    # An atexit handler runs in the teardown: under -X dev or -W the teardown
    # is kept, so a file left open still shows as a ResourceWarning.
    script = ("import atexit, sys, kellybt.cli as c; atexit.register(print, 'TEARDOWN'); "
              "c.run(sys.argv[1:])")
    proc = _process("-c", script, "synth", "--n", "50", "--out", str(tmp_path / "out"),
                    flags=flags)
    assert proc.returncode == 0 and proc.stderr == b""
    lines = proc.stdout.decode().splitlines()
    assert json.loads(lines[0])["status"] == "ok"
    assert lines[1:] == (["TEARDOWN"] if teardown else [])


def test_a_cli_process_writes_the_files_of_an_in_process_run(tmp_path):
    # At 30,000 bars simulate splits its tables into row ranges on the
    # formatting pool; os._exit must not cut off any of them.
    argv = ["simulate", "--n", "30000", "--stride", "1", "--out"]
    proc = _process("-m", "kellybt.cli", *argv, str(tmp_path / "process"))
    assert proc.returncode == 0 and proc.stderr == b""
    [line] = proc.stdout.decode().splitlines()
    assert json.loads(line)["status"] == "ok"
    assert main([*argv, str(tmp_path / "in-process")]) == 0
    # Nothing is left running that os._exit could cut off.
    assert threading.enumerate() == [threading.main_thread()]
    digests = [{p.name: artifacts.sha256_file(p) for p in (tmp_path / name).iterdir()
                if p.name != "manifest.json"} for name in ("process", "in-process")]
    manifest = json.loads((tmp_path / "process" / "manifest.json").read_text())
    assert digests[0] == manifest["artifacts"] == digests[1]


@pytest.mark.parametrize("argv, code, kind", [
    (["synth", "--does-not-exist", "1"], 2, "usage"),
    (["features", "--input", "{tmp}/nope.csv"], 3, "missing_input"),
    (["synth", "--n", "0"], 4, "config"),
    (["label", "--input", "{tmp}/bad.csv"], 5, "data"),
], ids=["usage", "missing-input", "config", "data"])
def test_a_cli_process_exits_with_the_code_and_error_record_of_main(tmp_path, argv, code,
                                                                    kind):
    (tmp_path / "bad.csv").write_text("timestamp,open,high,low,close,volume\n"
                                      "3600,100,99,101,100,1\n")
    proc = _process("-m", "kellybt.cli", *(a.format(tmp=tmp_path) for a in argv),
                    "--out", str(tmp_path / "out"))
    assert proc.returncode == code and proc.stdout == b""
    [line] = proc.stderr.decode().splitlines()
    assert json.loads(line)["error"] == kind


def test_a_cli_process_reports_a_closed_stdout_pipe_as_python_does(tmp_path):
    # The status line cannot be flushed: the process takes the teardown, in
    # which Python reports the broken pipe and exits 120.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _process("-m", "kellybt.cli", "synth", "--n", "50", "--out", str(tmp_path),
                        stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    assert proc.stderr.decode().splitlines()[-1].startswith("BrokenPipeError: ")


@pytest.mark.parametrize("flags", [(), ("-u",), ("-X", "dev"), ("-W", "default")],
                         ids=["buffered", "unbuffered", "dev-mode", "warning-option"])
@pytest.mark.parametrize("stderr", ["closed", "read-only"])
def test_a_cli_process_without_a_writable_stderr_keeps_its_exit_code(tmp_path, flags, stderr):
    # The error record is dropped. It went to stdout when descriptor 2 was
    # closed at start (sys.stderr is None); a write that failed ended the
    # process with 1, a flush that failed with 120, also in the teardown that
    # dev mode and a warning option keep.
    argv = ["-m", "kellybt.cli", "synth", "--n", "0", "--out", str(tmp_path)]
    if stderr == "closed":
        launcher = ("import os, sys; os.close(2); "
                    "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])")
        proc = _process("-c", launcher, *flags, *argv)
    else:
        with open(os.devnull, "rb") as unwritable:
            proc = _process(*argv, flags=flags, stderr=unwritable)
    assert proc.returncode == 4 and proc.stdout == b""
