"""What the traced run wraps in prealign, and what it derives from the spans.

The layers are the package's modules.  Every public function (its module's
``__all__``) is wrapped, plus two private runner boundaries: ``_run_single``
(one trial of one variant) and ``_ResolvedData`` (dataset resolution before
the first trial).  FLOPs and bytes are computed from argument shapes, not
counted by hardware.
"""

from __future__ import annotations

import inspect
import os
import sys

import numpy as np

from tracer import Span, self_times

LAYERS = ("noise", "net", "learn", "metrics", "linalg", "data", "runner")
PRIVATE = {"prealign.runner.experiment": ("_run_single", "_ResolvedData")}
TRIAL = "runner._run_single"
SETUP = "runner._ResolvedData"
HOOK = "runner.snapshot_hook"
HOOKS = {
    "noise.pretrain_random_noise": ("snapshot_hook", HOOK),
    "learn.train": ("snapshot_hook", HOOK),
}


def select() -> list:
    """``(function, span name)`` for every function the traced run wraps."""
    import prealign.runner.experiment  # noqa: F401  loads every layer module

    selected = []
    for mod_name, module in sorted(sys.modules.items()):
        parts = mod_name.split(".")
        if parts[0] != "prealign" or len(parts) < 2 or parts[1] not in LAYERS:
            continue
        names = tuple(getattr(module, "__all__", ())) + PRIVATE.get(mod_name, ())
        for attr in names:
            fn = getattr(module, attr, None)
            if getattr(fn, "__module__", None) != mod_name:
                continue
            if inspect.isfunction(fn) or attr in PRIVATE.get(mod_name, ()):
                selected.append((fn, f"{parts[1]}.{attr}"))
    return selected


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _weights(dims) -> int:
    """Multiply-adds per row of one pass through the weight matrices."""
    return sum(a * b for a, b in zip(dims, dims[1:]))


def _forward(args, kwargs, result):
    rows = np.shape(_arg(args, kwargs, 1, "batch"))[0]
    dims = _arg(args, kwargs, 0, "mlp").dims
    return {"rows": rows, "gflop": 2e-9 * rows * _weights(dims)}


def _backward(args, kwargs, result):
    dims = _arg(args, kwargs, 0, "mlp").dims
    rows = _arg(args, kwargs, 1, "trace").probabilities.shape[0]
    # a weight gradient per layer, a carried delta for all but the first
    return {"rows": rows, "gflop": 2e-9 * rows * (2 * _weights(dims) - dims[0] * dims[1])}


def _adam(args, kwargs, result):
    mlp = _arg(args, kwargs, 0, "mlp")
    params = sum(w.size for w in mlp.weights) + sum(b.size for b in mlp.biases)
    # reads parameter, gradient, m and v; writes parameter, m and v
    return {"params": params, "bytes": 7 * 8 * params}


def _load_idx(args, kwargs, result):
    paths = (_arg(args, kwargs, 0, "images_path"), _arg(args, kwargs, 1, "labels_path"))
    return {"rows": result.n, "bytes_read": sum(os.path.getsize(p) for p in paths)}


WORK = {
    "net.forward": _forward,
    "learn.backward_fa": _backward,
    "learn.backward_bp": _backward,
    "learn.adam_step": _adam,
    "learn.evaluate": lambda a, k, r: {"rows": np.shape(_arg(a, k, 1, "inputs"))[0]},
    "data.load_idx": _load_idx,
    "data.subset": lambda a, k, r: {"rows": r.n},
    "data.transform_affine": lambda a, k, r: {"images": r.n},
    "net.save_mlp": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
}

# stat -> (derived stat, numerator scale) for rates over a layer's busy time
RATES = {"gflop": ("gflop_per_s", 1.0), "bytes_read": ("mb_per_s", 1e-6),
         "images": ("images_per_s", 1.0)}


def _setup_subtree(spans: list[Span]) -> set[int]:
    by_id = {s.span_id: s for s in spans}
    inside = set()
    for s in spans:
        node = s
        while node is not None:
            if node.name == SETUP:
                inside.add(s.span_id)
                break
            node = by_id.get(node.parent)
    return inside


def run_derived(spans: list[Span], run_s: float) -> dict[str, float]:
    """Ratios for one traced run: trial overlap, hook share, and the largest
    share of ``run_s`` that one thread's self time outside setup covers."""
    setup = _setup_subtree(spans)
    selfs = self_times(spans)
    per_thread: dict[int, float] = {}
    for s in spans:
        if s.span_id not in setup:
            per_thread[s.thread] = per_thread.get(s.thread, 0.0) + selfs[s.span_id]
    out = {
        "metrics.hook_share": sum(s.duration for s in spans if s.name == HOOK) / run_s,
        "trace.self_cover": max(per_thread.values(), default=0.0) / run_s,
    }
    trials = [s for s in spans if s.name == TRIAL]
    if trials:
        wall = max(s.end for s in trials) - min(s.start for s in trials)
        out["runner.trial_overlap"] = sum(s.duration for s in trials) / wall
    return out
