"""Every public name has one import path: the module that defines it."""

import importlib
import pkgutil
import types
from collections import Counter

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
