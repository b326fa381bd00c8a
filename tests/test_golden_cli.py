"""Pinned outputs of a small fixed run of every artifact-producing command.

Each command's artifacts (all but manifest.json) are pinned by sha256, and
its resolved manifest config is pinned with the path-valued keys removed, so
a refactor of the CLI or of the library under it cannot change a byte, a
default or a config key unnoticed. ``test_command_defaults`` pins every
command's fully defaulted config the same way.

Regenerate the pins after an intended output change with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review the diff.
"""
import csv
import json
import os
from pathlib import Path

import pytest

from kellybt import cli
from kellybt.artifacts import sha256_file
from kellybt.candles import DEFAULT_START_TS, HOUR

PINS_PATH = Path(__file__).with_name("golden_cli.json")
PATH_KEYS = ("input", "out", "predictions", "grid")

TRAIN_END = str(DEFAULT_START_TS + 400 * HOUR)
VAL_END = str(DEFAULT_START_TS + 600 * HOUR)


def _runs(tmp: str) -> list[tuple[str, list[str]]]:
    """(run name, argv) in dependency order; later runs read earlier outputs."""
    candles = f"{tmp}/synth/candles.csv"
    preds_pab = f"{tmp}/simulate/predictions.csv"
    preds_p = f"{tmp}/predictions_p.csv"
    return [
        ("synth", ["synth", "--seed", "3", "--n", "800", "--volatility", "0.02"]),
        ("ingest", ["ingest", "--input", candles, "--train-end", TRAIN_END,
                    "--val-end", VAL_END]),
        ("features", ["features", "--input", candles, "--price-model",
                      "--train-end", TRAIN_END]),
        ("label", ["label", "--input", candles, "--up-pct", "0.01",
                   "--down-pct", "0.01"]),
        ("simulate", ["simulate", "--input", candles, "--sim", "gaussian",
                      "--sim-seed", "4", "--window", "100", "--fee-rate", "0.0005"]),
        ("compare", ["compare", "--seeds", "0-1", "--n", "600",
                     "--sims", "balanced,optimal,gaussian", "--window", "100"]),
        ("backtest", ["backtest", "--input", candles, "--predictions", preds_pab,
                      "--stride", "2"]),
        ("backtest_trailing", ["backtest", "--input", candles, "--predictions", preds_p,
                               "--window", "100", "--policy", "gaussian"]),
        ("report", ["report", "--input", candles, "--predictions", preds_pab]),
        ("report_trailing", ["report", "--input", candles, "--predictions", preds_p,
                             "--window", "100", "--threshold", "0.55"]),
        ("kelly-surface", ["kelly-surface"]),
        ("kelly-surface_p", ["kelly-surface", "--p", "0.6"]),
    ]


def _drop_scenarios(src: str, dest: str) -> None:
    with open(src, newline="") as fh, open(dest, "w", newline="") as out:
        for row in csv.reader(fh):
            out.write(",".join(row[:2]) + "\n")


def _collect(tmp: str) -> dict:
    pins = {}
    for name, argv in _runs(tmp):
        if name == "backtest_trailing":
            _drop_scenarios(f"{tmp}/simulate/predictions.csv", f"{tmp}/predictions_p.csv")
        outdir = f"{tmp}/{name}"
        assert cli.main(argv + ["--out", outdir]) == 0, name
        with open(f"{outdir}/manifest.json") as fh:
            manifest = json.load(fh)
        assert sorted(manifest["artifacts"]) == sorted(
            f for f in os.listdir(outdir) if f != "manifest.json")
        pins[name] = {
            "artifacts": {f: sha256_file(f"{outdir}/{f}")
                          for f in sorted(manifest["artifacts"])},
            "config": {k: v for k, v in manifest["config"].items() if k not in PATH_KEYS},
        }
    return pins


def _defaults() -> dict:
    parser = cli.build_parser()
    return {
        command: cli._resolve(command, parser.parse_args([command]))
        for command in cli.DEFAULTS
    }


def _load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def test_command_defaults():
    assert _defaults() == _load_pins()["defaults"]


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    return _collect(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("name", [name for name, _ in _runs("")])
def test_command_outputs_pinned(golden_run, name):
    want = _load_pins()["runs"][name]
    got = golden_run[name]
    assert got["config"] == want["config"]
    assert got["artifacts"] == want["artifacts"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {"defaults": _defaults(), "runs": _collect(tmp)}
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
