"""Static check: every name a module of the package imports is used in it.

The package's `__init__.py` is exempt: its imports are the public
re-exports collected into `__all__`.
"""

import ast
import importlib
import pathlib

import pytest

import mulcm

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mulcm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detector_flags_unused_and_accepts_used():
    src = ("import os\nimport numpy as np\nfrom math import pi, tau\n"
           "from .x import y\nprint(np.pi, tau, y.z)\n")
    assert unused_imports(src) == ["os (line 1)", "pi (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("name", [p.stem for p in MODULES])
def test_package_attribute_is_the_module(name):
    # A re-exported function must not shadow the submodule of the same name.
    module = importlib.import_module(f"mulcm.{name}")
    assert getattr(mulcm, name) is module
