"""Every public name has one import path: the module that defines it; and
the package imports nothing but the standard library and numpy."""

import ast
import importlib
import pkgutil
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import prealign
import prealign.runner

MODULES = ["prealign"] + [
    m.name for m in pkgutil.walk_packages(prealign.__path__, "prealign.")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_no_name_is_exported_by_two_modules():
    counts = Counter(
        n for name in MODULES for n in getattr(importlib.import_module(name), "__all__", ())
    )
    assert sorted(n for n, c in counts.items() if c > 1) == []


@pytest.mark.parametrize("package", [prealign, prealign.runner])
def test_packages_hold_only_submodules(package):
    names = [n for n, v in vars(package).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert names == []


def test_imports_only_the_standard_library_and_numpy():
    # pyproject.toml declares numpy as the one dependency
    allowed = set(sys.stdlib_module_names) | {"numpy", "prealign"}
    foreign = []
    for path in sorted(Path(prealign.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []
