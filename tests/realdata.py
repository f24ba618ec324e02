"""Location of the real datasets some tests train on.

A plain module rather than part of ``conftest.py``: test files import it
by name, and ``conftest`` is ambiguous once more than one test directory
is collected.
"""

from __future__ import annotations

import os

import pytest


def dataset_root() -> str | None:
    """Directory holding real datasets, or None when not provided."""
    root = os.environ.get("PREALIGN_DATA_DIR")
    if root and os.path.isdir(root):
        return root
    return None


def require_dataset(*names: str) -> str:
    """Skip the calling test when any named dataset directory is missing."""
    root = dataset_root()
    if root is None:
        pytest.skip("PREALIGN_DATA_DIR is not set; real-data run skipped")
    for name in names:
        if not os.path.isdir(os.path.join(root, name)):
            pytest.skip(f"dataset {name!r} not found under {root}")
    return root
