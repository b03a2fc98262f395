import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bornsim.cli import main, parse_grid
from bornsim.errors import BornsimError


def run_cli(args):
    return main(args)


def test_parse_grid():
    assert np.allclose(parse_grid("0:0.5:2"), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.allclose(parse_grid("1:1:1"), [1.0])
    with pytest.raises(BornsimError):
        parse_grid("2:0.5:1")
    with pytest.raises(BornsimError):
        parse_grid("0:-1:2")
    with pytest.raises(BornsimError):
        parse_grid("nope")


def test_counts_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    argv = ["counts", "--alpha0", "0.707", "--gamma", "1", "--n", "1000", "--seed", "42"]
    assert run_cli(argv + ["--out-dir", str(out1)]) == 0
    assert run_cli(argv + ["--out-dir", str(out2)]) == 0
    csv1 = (out1 / "counts-42.csv").read_bytes()
    csv2 = (out2 / "counts-42.csv").read_bytes()
    assert csv1 == csv2
    header = csv1.decode().splitlines()[0]
    assert header == "theta_deg,analytic,expansion,counts"
    assert len(csv1.decode().splitlines()) == 182


def test_counts_seed_changes_output(tmp_path):
    argv = ["counts", "--n", "500", "--out-dir", str(tmp_path)]
    assert run_cli(argv + ["--seed", "1"]) == 0
    assert run_cli(argv + ["--seed", "2"]) == 0
    assert (tmp_path / "counts-1.csv").read_bytes() != (tmp_path / "counts-2.csv").read_bytes()


def test_manifest_records_config_and_files(tmp_path):
    assert run_cli(["deviation", "--seed", "7", "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "deviation-7.manifest.json").read_text())
    assert manifest["command"] == "deviation"
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["gamma"] == 1.0
    assert "deviation-7.csv" in manifest["files"]
    assert "deviation-7.json" in manifest["files"]
    assert manifest["wall_clock_seconds"] >= 0.0
    assert "version" in manifest


def test_format_selects_outputs(tmp_path):
    assert run_cli(["deviation", "--seed", "3", "--format", "csv",
                    "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "deviation-3.csv").exists()
    assert not (tmp_path / "deviation-3.json").exists()
    assert (tmp_path / "deviation-3.manifest.json").exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 1.6, "alpha0": 0.5}))
    assert run_cli(["deviation", "--config", str(cfg), "--seed", "4",
                    "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "deviation-4.manifest.json").read_text())
    assert manifest["config"]["gamma"] == 1.6
    assert manifest["config"]["alpha0"] == 0.5
    # explicit flag wins over the config file
    assert run_cli(["deviation", "--config", str(cfg), "--gamma", "0.8", "--seed", "5",
                    "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "deviation-5.manifest.json").read_text())
    assert manifest["config"]["gamma"] == 0.8


def test_threads_environment_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("BORNSIM_THREADS", "3")
    assert run_cli(["deviation", "--seed", "6", "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "deviation-6.manifest.json").read_text())
    assert manifest["config"]["threads"] == 3
    assert run_cli(["deviation", "--threads", "2", "--seed", "8",
                    "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "deviation-8.manifest.json").read_text())
    assert manifest["config"]["threads"] == 2


def test_bad_grid_is_scenario_error(tmp_path, capsys):
    code = run_cli(["antibunch", "--alpha-grid", "3:0.1:0", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fidelity", "fidelity-mle"])
def test_empty_ensemble_is_scenario_error(tmp_path, capsys, command):
    code = run_cli([command, "--n-states", "0", "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["bornsim: error: n_states must be >= 1"]


@pytest.mark.parametrize("argv", [
    ["hyper", "--gamma-grid", "0:0.5:1"],
    ["born-again", "--gamma", "0"],
    ["antibunch", "--gamma", "0"],
    ["mz", "--gamma", "0"],
    ["deviation", "--gamma", "0"],
    ["witness", "--gamma", "0"],
    ["fidelity-contour", "--fast", "--gamma-grid", "0:0.25:1", "--alpha-grid", "0.5:0.5:1"],
    # thresholds so high that nothing ever clicks
    ["visibility-contour", "--gamma-grid", "1:19:20"],
    ["fidelity-contour", "--fast", "--gamma-grid", "20:1:20", "--alpha-grid", "0.5:0.5:1"],
], ids=["hyper", "born-again", "antibunch", "mz", "deviation", "witness", "fidelity-contour",
        "visibility-contour-high", "fidelity-contour-high"])
def test_degenerate_threshold_is_scenario_error(tmp_path, capsys, argv):
    assert run_cli(argv + ["--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bornsim: error: ")


@pytest.mark.parametrize("command, config, flags, key", [
    ("deviation", {"gamma": "x"}, [], "gamma"),
    ("counts", {"n_trials": "many"}, [], "n_trials"),
    ("visibility", {"alphas": 1.0}, [], "alphas"),
    ("visibility", None, ["--alphas", "1,x"], "alphas"),
    ("deviation", {"gamam": 2}, [], "gamam"),
    ("antibunch", {"alpha_grid": "nan:1:2"}, [], "nan:1:2"),
], ids=["wrong-float", "wrong-int", "wrong-list", "bad-alphas-flag", "unknown-key", "nan-grid"])
def test_bad_config_is_one_line_error(tmp_path, capsys, command, config, flags, key):
    argv = [command, "--out-dir", str(tmp_path), *flags]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bornsim: error: ") and key in err[0]
    assert not list(tmp_path.glob("*.manifest.json"))


def test_cli_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, bornsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_unknown_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["counts", "--bogus", "1"])
    assert exc.value.code == 2


def test_witness_with_circuit_file_matches_default(tmp_path):
    circuit = tmp_path / "bell.json"
    circuit.write_text(json.dumps([
        {"gate": "hadamard", "wires": [0, 2]},
        {"gate": "hadamard", "wires": [1, 3]},
        {"gate": "x", "wires": [2, 3]},
    ]))
    assert run_cli(["witness", "--alpha-grid", "0.5:0.5:1.5", "--seed", "9",
                    "--out-dir", str(tmp_path / "default")]) == 0
    assert run_cli(["witness", "--alpha-grid", "0.5:0.5:1.5", "--seed", "9",
                    "--circuit", str(circuit), "--out-dir", str(tmp_path / "circ")]) == 0
    # same physical state up to float rounding in the circuit composition
    def rows(path):
        lines = path.read_text().splitlines()
        return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])

    a = rows(tmp_path / "default" / "witness-9.csv")
    b = rows(tmp_path / "circ" / "witness-9.csv")
    assert np.allclose(a, b, atol=1e-9)


def test_mz_manifest_holds_fit_summary(tmp_path):
    assert run_cli(["mz", "--seed", "11", "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "mz-11.json").read_text())
    fit = payload["meta"]["fit"]
    assert 0.9 < fit["visibility"] < 1.0
    assert 0.05 < fit["r_d"] < 0.2
    assert 0.0 < fit["rmse"] < 0.1


def test_visibility_contour_rows(tmp_path):
    assert run_cli(["visibility-contour", "--alpha-grid", "1:0.5:2",
                    "--gamma-grid", "1:0.5:2", "--seed", "12",
                    "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "visibility-contour-12.csv").read_text().splitlines()
    assert lines[0] == "alpha,gamma,visibility"
    assert len(lines) == 1 + 9


def test_parse_grid_values_are_clean():
    grid = parse_grid("0:0.1:3")
    assert grid.size == 31
    assert grid[3] == 0.3
    assert grid[-1] == 3.0
