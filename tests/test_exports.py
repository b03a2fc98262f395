"""Every exported name resolves: a deleted function must not linger in an export list."""

import ast
import importlib
import pkgutil
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
