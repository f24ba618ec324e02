"""Every exported name resolves, so a deletion cannot leave one behind."""

import importlib
import pkgutil

import pytest

import prealign

MODULES = ["prealign"] + [
    m.name for m in pkgutil.walk_packages(prealign.__path__, "prealign.")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

