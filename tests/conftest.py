"""Shared fixtures and markers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from prealign import init_mlp


def pytest_collection_modifyitems(config, items):
    if os.environ.get("PREALIGN_RUN_FULL_SCALE") == "1":
        return
    skip = pytest.mark.skip(
        reason="full-duration run; set PREALIGN_RUN_FULL_SCALE=1 to enable"
    )
    for item in items:
        if "full_scale" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def tiny_mlp():
    return init_mlp((5, 4, 3), seed=0)
