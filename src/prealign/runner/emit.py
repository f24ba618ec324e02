"""Result emission: CSV record tables and JSON manifests.

The CSV layout is part of the package's external contract: a fixed
seven-column prefix, then the union of metric names in sorted order, floats
at 9 significant digits, empty cells for absent values, UTF-8 with LF line
endings.
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import ConfigError
from ..records import RunRecord

__all__ = ["emit_csv", "write_manifest"]

_FIXED_COLUMNS = (
    "trial",
    "phase",
    "epoch",
    "train_loss",
    "test_loss",
    "train_acc",
    "test_acc",
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def emit_csv(records: list[RunRecord], path) -> None:
    """Write records as CSV with the fixed column prefix plus sorted metric
    columns.  Missing metrics become empty cells, never zeros."""
    if not records:
        raise ConfigError("no records to emit")
    metric_names = sorted({k for r in records for k in r.metrics})
    header = ",".join(_FIXED_COLUMNS + tuple(metric_names))
    lines = [header]
    for r in records:
        row = [
            str(r.trial),
            r.phase,
            str(r.epoch),
            _cell(r.train_loss),
            _cell(r.test_loss),
            _cell(r.train_acc),
            _cell(r.test_acc),
        ]
        row += [_cell(r.metrics.get(name)) for name in metric_names]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_manifest(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
