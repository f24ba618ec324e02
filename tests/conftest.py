"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from prealign import init_mlp


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def tiny_mlp():
    return init_mlp((5, 4, 3), seed=0)
