"""Every exported name resolves: a deleted function must not linger in an export list,
and every name the benchmark tracer binds must still exist."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import bornsim
from bornsim import cli
from bornsim.field import CLICK_BLOCK

MODULES = sorted(f"bornsim.{m.name}" for m in pkgutil.iter_modules(bornsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_imports_exist():
    tree = ast.parse(Path(bornsim.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    missing = [f"{module or ''}.{name}" for module, name in imported if not hasattr(bornsim, name)]
    assert not missing, f"bornsim/__init__.py imports missing names: {missing}"


def test_every_raise_names_the_one_exception_type():
    # the CLI reports every failure as one error line, so no caller tells kinds of
    # failure apart; a re-raise of a caught exception is no call and stays allowed
    errors = importlib.import_module("bornsim.errors")
    classes = [v for v in vars(errors).values()
               if isinstance(v, type) and v.__module__ == errors.__name__]
    assert classes == [errors.BornsimError] and issubclass(errors.BornsimError, ValueError)
    others = []
    for name in MODULES:
        path = importlib.import_module(name).__file__
        for node in ast.walk(ast.parse(Path(path).read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if ast.unparse(node.exc.func) != "BornsimError":
                    others.append(f"{name}:{node.lineno} raises {ast.unparse(node.exc.func)}")
    assert not others, others


def test_only_detection_forms_a_no_click_probability():
    # detection._click_law is the one place 1 - q of a click probability (or 1 - delta of
    # the dark-count one) is taken; any other function that subtracts q itself is a second
    # evaluation path of the same law
    others = []
    for name in MODULES:
        tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
        if name == "bornsim.detection":
            tree.body = [node for node in tree.body if getattr(node, "name", None) != "_click_law"]
        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                    and isinstance(node.left, ast.Constant) and node.left.value == 1
                    and isinstance(node.right, ast.Name)
                    and (node.right.id.startswith("q") or node.right.id == "delta")):
                others.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    assert not others, others


def test_benchmark_tracer_binds_every_name():
    # benchmarks/tracing.py looks layer functions and methods up by name; a
    # deleted name fails install() before its cleanup runs, so probe it in a
    # child interpreter that leaves this one untouched
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    probe = ("import sys, bornsim.cli; sys.path.insert(0, sys.argv[1]); import tracing; "
             "tracing.install(tracing.Tracer())(); print('bound')")
    out = subprocess.run([sys.executable, "-c", probe, str(root / "benchmarks")], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and out.stdout.strip() == "bound", out.stderr


# A small value for each parameter that sizes a command's work
SMALL = {"n_trials": 50, "alpha_grid": "1:1:2", "gamma_grid": "1:1:2", "n_states": 2,
         "n_points": 5, "sample_size": 10}


def small_runs(tmp_path) -> dict[str, list[str]]:
    """Each command's argv, with a config file that holds its SMALL parameters."""
    runs = {}
    for name, command in cli.COMMANDS.items():
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({k: v for k, v in SMALL.items() if k in command.params}))
        runs[name] = [name, "--config", str(config)]
    return runs


def _functions(code, prefix):
    """(name, (file, first line)) of every def below a code object; a class only names."""
    for c in code.co_consts:
        if inspect.iscode(c) and not c.co_name.startswith("<"):
            name = prefix + c.co_name
            if c.co_flags & inspect.CO_OPTIMIZED:
                yield name, (c.co_filename, c.co_firstlineno)
            yield from _functions(c, name + ".")


def test_every_function_in_src_runs_under_the_commands(tmp_path):
    # a function no command reaches is dead code or a test oracle, and belongs in tests/
    defined = {}
    for name in MODULES:
        path = importlib.import_module(name).__file__
        code = compile(Path(path).read_text(), path, "exec")
        defined.update(_functions(code, name.removeprefix("bornsim.") + "."))
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps([{"gate": g, "wires": w} for g, w in (
        ("hadamard", [0, 2]), ("cnot", [0, 1, 2, 3]), ("x", [2, 3]), ("phase", [1]))]))
    runs = list(small_runs(tmp_path).values())
    runs += [["witness", "--alpha-grid", "1:1:2", "--circuit", str(circuit)],
             ["counts", "--alpha0", "25", "--gamma", "1", "--n", "50"],  # Marcum's far tail
             ["counts", "--n", str(CLICK_BLOCK)]]  # angles counted on every usable CPU
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # threads started from here on, such as the scan's helpers, run the hook too
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv + ["--out-dir", str(tmp_path / "out")]) for argv in runs]
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert codes == [0] * len(runs)
    idle = sorted(n for n, where in defined.items() if where not in ran)
    assert not idle, f"functions no command runs: {idle}"


SWEEP_METRICS = ("mean_fidelity", "frac_invalid", "mean_visibility", "mean_ppt_witness")


def test_each_command_json_holds_its_csv_numbers(tmp_path):
    # a run's two data files lay out one result: the JSON holds exactly the CSV's numbers
    for name, argv in small_runs(tmp_path).items():
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
        header, *rows = (tmp_path / f"{name}-42.csv").read_text().splitlines()
        cells = np.array([row.split(",") for row in rows], dtype=float)
        table = dict(zip(header.split(","), cells.T))
        data = json.loads((tmp_path / f"{name}-42.json").read_text())
        if name == "visibility-contour":
            held = {key: [row[key] for row in data["rows"]] for key in data["rows"][0]}
        elif "grid" in data:  # a ScenarioResult
            held = {data["grid_name"]: data["grid"], **data["analytic"], **(data["counts"] or {})}
        else:  # a SweepResult, one CSV row per (alpha, gamma) point
            alphas, gammas = np.meshgrid(data["alphas"], data["gammas"], indexing="ij")
            held = {"alpha": alphas, "gamma": gammas, **{k: data[k] for k in SWEEP_METRICS}}
        assert sorted(held) == sorted(table), name
        for key, column in table.items():
            assert np.array_equal(np.ravel(held[key]), column, equal_nan=True), (name, key)
