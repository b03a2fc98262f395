"""Every exported name resolves: a deleted function must not linger in an export list,
and every name the benchmark tracer binds must still exist."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bornsim

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
