"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from prealign.learn import _openblas_threads
from prealign.net import init_mlp


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def tiny_mlp():
    return init_mlp((5, 4, 3), seed=0)


@pytest.fixture
def blas_threads():
    """``(set, get)`` of the BLAS thread count, set to 2 (more than the one
    the package computes on, even on a one-core host) and restored after
    the test; skips where numpy bundles no OpenBLAS with a setter."""
    blas = _openblas_threads()
    if blas is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread-count setter")
    set_threads, get_threads = blas
    original = get_threads()
    set_threads(2)
    yield blas
    set_threads(original)
